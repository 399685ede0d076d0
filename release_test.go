package radixdecluster

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"radixdecluster/internal/workload"
)

// sentinel is what a caller scribbles over result columns it owns
// before releasing them: any slot of the next result that is drawn
// dirty from the arena and not written shows it.
const sentinel int32 = 0x5A5A5A5A

// releaseCase is one plan of the release tests: a strategy and, for
// DSM post-projection, a per-side method pair.
type releaseCase struct {
	st     Strategy
	lm, sm ProjMethod
}

func (c releaseCase) String() string {
	if c.lm == AutoMethod {
		return c.st.String()
	}
	return fmt.Sprintf("%v/%c%c", c.st, c.lm, c.sm)
}

func releaseCases() []releaseCase {
	return []releaseCase{
		{st: DSMPostDecluster},
		{DSMPostDecluster, UnsortedMethod, UnsortedMethod},
		{DSMPostDecluster, ClusterMethod, UnsortedMethod},
		{DSMPostDecluster, SortedMethod, UnsortedMethod},
		{DSMPostDecluster, ClusterMethod, DeclusterMethod},
		{st: DSMPre}, {st: NSMPreHash}, {st: NSMPrePhash},
		{st: NSMPostDecluster}, {st: NSMPostJive},
	}
}

func (c releaseCase) query(larger, smaller *Relation, pi int, comp Compression, rt *Runtime) JoinQuery {
	return JoinQuery{
		Larger: larger, Smaller: smaller, LargerKey: "key", SmallerKey: "key",
		LargerProject: projNames(pi), SmallerProject: projNames(pi),
		Strategy: c.st, LargerMethod: c.lm, SmallerMethod: c.sm,
		Parallelism: 2, Runtime: rt, Compression: comp,
	}
}

// TestRecycledResultBuffersFullyWritten: result arrays come out of the
// arena dirty, so every slot must be written by the operators. Query A
// runs on a pooled runtime, its columns — but the read-only views of a
// join image a key-FK query returns — are overwritten with a
// sentinel and released; query B — same shape, different data — then
// draws those very buffers and must equal its serial run, the
// make-only reference. N is below the buffers' class size, so the
// slack beyond len must be unreachable through Cols.
func TestRecycledResultBuffersFullyWritten(t *testing.T) {
	if testing.Short() {
		t.Skip("needs relations large enough for the parallel paths")
	}
	const pi, n = 2, 20000
	rt := NewRuntime(RuntimeConfig{Workers: 2})
	defer rt.Close()
	for _, hit := range []float64{1, 0.3} {
		la, sa := compressedRelations(t,
			workload.Params{N: n, Omega: pi + 1, HitRate: hit, SelLarger: 1, SelSmaller: 1, Seed: 71}, pi)
		lb, sb := compressedRelations(t,
			workload.Params{N: n, Omega: pi + 1, HitRate: hit, SelLarger: 1, SelSmaller: 1, Seed: 72}, pi)
		for _, comp := range []Compression{CompressionOff, CompressionOn} {
			for _, c := range releaseCases() {
				tag := fmt.Sprintf("%v/hit=%g/compression=%v", c, hit, comp)
				a, err := ProjectJoin(c.query(la, sa, pi, comp, rt))
				if err != nil {
					t.Fatalf("%s: query A: %v", tag, err)
				}
				if a.N == 0 || len(a.Cols) != 2*pi {
					t.Fatalf("%s: query A returned %d rows, %d columns", tag, a.N, len(a.Cols))
				}
				for i, col := range a.Cols {
					if len(col) != a.N || cap(col) != a.N {
						t.Fatalf("%s: column %d has len %d cap %d, want both %d", tag, i, len(col), cap(col), a.N)
					}
					if i < pi && imageView(la, projNames(pi)[i], col) {
						continue // read-only: a view of la's join image, never recycled
					}
					for j := range col {
						col[j] = sentinel
					}
				}
				a.Release()

				serial := c.query(lb, sb, pi, comp, nil)
				serial.Parallelism = 0
				want, err := ProjectJoin(serial)
				if err != nil {
					t.Fatalf("%s: query B serial: %v", tag, err)
				}
				b, err := ProjectJoin(c.query(lb, sb, pi, comp, rt))
				if err != nil {
					t.Fatalf("%s: query B: %v", tag, err)
				}
				if b.N != want.N || !slices.EqualFunc(b.Cols, want.Cols, slices.Equal[[]int32]) {
					t.Errorf("%s: result over recycled buffers differs from the serial run", tag)
				}
				b.Release()
			}
		}
	}
	if s := rt.MemPoolStats(); s.Leases != 0 {
		t.Fatalf("%d leases still open", s.Leases)
	}
}

// imageView reports whether col is r's join image column name itself.
func imageView(r *Relation, name string, col []int32) bool {
	ki, ok := r.imgs.Held()["key"]
	return ok && len(col) > 0 && unsafe.SliceData(col) == unsafe.SliceData(ki.Cols[name].Raw)
}

// TestResultReleaseLifecycle walks what a caller may do with a result:
// release it twice, release it after mangling Cols, never release it —
// and what the arena shows for each.
func TestResultReleaseLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("needs relations large enough for the parallel paths")
	}
	const pi = 2
	larger, smaller := workloadRelations(t,
		workload.Params{N: 32 << 10, Omega: pi + 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 73}, pi)
	rt := NewRuntime(RuntimeConfig{Workers: 2})
	defer rt.Close()
	for _, c := range releaseCases() {
		t.Run(c.String(), func(t *testing.T) {
			q := c.query(larger, smaller, pi, CompressionOff, rt)
			run := func() *Result {
				t.Helper()
				res, err := ProjectJoin(q)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			sq := q
			sq.Parallelism = 0
			want, err := ProjectJoin(sq)
			if err != nil {
				t.Fatal(err)
			}
			same := func(tag string, got *Result) {
				t.Helper()
				requireSameResult(t, tag, got, want)
			}

			// Never released: the buffers are garbage, nothing stays
			// open, and the next query is none the worse.
			same("first", run())
			if s := rt.MemPoolStats(); s.Leases != 0 {
				t.Fatalf("unreleased result left %d leases open", s.Leases)
			}

			// Released after the caller re-sliced Cols: the buffers still
			// go back whole. Released again: nothing happens.
			second := run()
			same("after an unreleased result", second)
			second.Cols[0] = second.Cols[0][second.N/2:]
			second.Cols = second.Cols[:1]
			second.Release()
			held := rt.MemPoolStats().HeldBytes
			second.Release()
			if second.Cols != nil {
				t.Fatal("Release left Cols set")
			}
			if got := rt.MemPoolStats().HeldBytes; got != held {
				t.Fatalf("second Release moved the arena's held bytes %d -> %d", held, got)
			}
			if _, err := second.Column("larger.a1"); err == nil || !strings.Contains(err.Error(), "released") {
				t.Fatalf("Column on a released result: err = %v, want one that says released", err)
			}
			func() {
				defer func() {
					if msg := fmt.Sprint(recover()); !strings.Contains(msg, "released") {
						t.Fatalf("Row on a released result: panic %q, want one that says released", msg)
					}
				}()
				second.Row(0)
			}()

			// Everything the second query drew is back, so an identical
			// third one allocates nothing.
			before := rt.MemPoolStats()
			third := run()
			same("after a released result", third)
			if d := rt.MemPoolStats().Misses - before.Misses; d != 0 {
				t.Errorf("third identical query missed the arena %d times", d)
			}
			if m := third.Timing.Mem; m.Acquired == 0 || m.Reused != m.Acquired {
				t.Errorf("third identical query: acquired %d bytes, reused %d", m.Acquired, m.Reused)
			}
			third.Release()
		})
	}
}

// TestImageViewReleaseKeepsImage pins the view contract of a key-FK
// runtime query over join images: each larger result column is the
// larger relation's join image column itself — the same memory, capped
// at N, so an append reallocates — and no arena buffer; the smaller
// columns are result arrays. Release must leave the image alone. N is a
// power of two, so an image column is a class-sized arena buffer the
// arena would take: released, it would be the scratch of the four
// queries that run next and draw buffers of that size — compressed,
// NSM, paper mode and a second raw query. Afterwards every join image
// column and hash array checksums as before and the query still equals
// the serial run.
func TestImageViewReleaseKeepsImage(t *testing.T) {
	if testing.Short() {
		t.Skip("needs full-size relations")
	}
	const pi = 2
	n := 1 << 20
	if raceEnabled {
		n = 1 << 16
	}
	larger, smaller := compressedRelations(t,
		workload.Params{N: n, Omega: pi + 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 87}, pi)
	rt := NewRuntime(RuntimeConfig{Workers: 2})
	defer rt.Close()
	q := JoinQuery{
		Larger: larger, Smaller: smaller, LargerKey: "key", SmallerKey: "key",
		LargerProject: projNames(pi), SmallerProject: projNames(pi),
		Parallelism: 2, Runtime: rt,
	}
	// The serial run of the plan the runtime picks, u/u.
	serial := q
	serial.Parallelism, serial.Runtime = 0, nil
	serial.LargerMethod, serial.SmallerMethod = UnsortedMethod, UnsortedMethod
	want, err := ProjectJoin(serial)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ProjectJoin(q)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "raw", res, want)
	for c, name := range projNames(pi) {
		if col := res.Cols[c]; !imageView(larger, name, col) || len(col) != n || cap(col) != n {
			t.Fatalf("larger column %s: not the join image column capped at N (len %d cap %d)", name, len(col), cap(col))
		}
		if imageView(smaller, name, res.Cols[pi+c]) {
			t.Fatalf("smaller column %s is the join image column", name)
		}
	}
	sums := imageChecksums(larger, smaller)
	res.Release()

	for _, o := range []struct {
		name string
		edit func(*JoinQuery)
	}{
		{"compressed", func(q *JoinQuery) { q.Compression = CompressionOn }},
		{"NSM", func(q *JoinQuery) { q.Strategy = NSMPostDecluster }},
		{"paper mode", func(q *JoinQuery) { q.Parallelism, q.Runtime = 0, nil }},
		{"raw", func(*JoinQuery) {}},
	} {
		oq := q
		o.edit(&oq)
		r, err := ProjectJoin(oq)
		if err != nil {
			t.Fatalf("%s: %v", o.name, err)
		}
		if r.Timing.Mem.Acquired < int64(4*n) {
			t.Fatalf("%s: drew %d bytes from the arena, want at least one %d-byte buffer", o.name, r.Timing.Mem.Acquired, 4*n)
		}
		r.Release()
	}
	after := imageChecksums(larger, smaller)
	for name, sum := range sums {
		if after[name] != sum {
			t.Errorf("join image %s changed after the view was released", name)
		}
	}
	res, err = ProjectJoin(q)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "after the release", res, want)
	res.Release()
}
