package radixdecluster

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"radixdecluster/internal/exec"
	"radixdecluster/internal/workload"
)

// Join images: a runtime DSM post-projection query that plans u/u — the
// Auto plan — joins over each relation's key column radix-clustered once
// (Relation.joinImage) and only probes, and projects both sides from
// image-order copies of their columns — raw ones, or for a compressed
// plan the decoded image-order encodings. A paper-mode query, and a
// runtime query with a forced non-u method, clusters per query. The
// results are the raw serial run's bytes for the same plan line.

// traceSteps counts a traced result's steps of the given name.
func traceSteps(res *Result, name string) int {
	n := 0
	for _, ev := range res.Trace.t.Events() {
		if ev.Cat == exec.StepCat && ev.Name == name {
			n++
		}
	}
	return n
}

// tracePhases lists a traced result's pipeline phases in order.
func tracePhases(res *Result) []string {
	var out []string
	for _, ev := range res.Trace.t.Events() {
		if ev.Cat != exec.StepCat && ev.Cat != "sched" && ev.Name != "morsel" {
			out = append(out, ev.Name)
		}
	}
	return out
}

// decodedEncodings is what a CompressionOn runtime DSM post-projection
// run of q with the given plan line decodes: for a u/u plan every
// encoding its sides' join images hold of the projected columns; any
// other plan clusters per query and runs raw.
func decodedEncodings(q JoinQuery, plan string) int {
	if strings.Contains(plan, "methods=u/u") {
		return imageEncodings(q.Smaller, q.SmallerProject) + imageEncodings(q.Larger, q.LargerProject)
	}
	return 0
}

// TestJoinImageEquivalence: runtime DSM post-projection equals the raw
// serial run of the same methods byte for byte — the planner's pick
// (u/u over join images, so its reference is the serial u/u run) and
// the forced u/u, c/u, s/d and c/d pairs, raw and compressed, at hit
// rates 0.3, 1 and 3, with inputs below the parallel threshold (serial
// probe) and above it. Each cell runs on fresh relations: a u/u cell's
// first query builds both images and its repeat builds none; a forced
// non-u cell clusters per query and builds none; a compressed cell
// decodes exactly the encodings of decodedEncodings. Then, on one pair
// of relations shared by every query: projections of one column, of all
// columns and of the key column alone; each relation in the other role;
// a query that projects a column the images lack, which adds exactly
// that column to each and rebuilds nothing else; and forced non-u
// queries, which leave the images as they are.
func TestJoinImageEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence matrix needs full-size relations")
	}
	const pi = 2
	big := 150000
	if raceEnabled {
		big = 40000
	}
	rt := NewRuntime(RuntimeConfig{Workers: 2})
	defer rt.Close()
	methods := [][2]ProjMethod{{AutoMethod, AutoMethod}, {UnsortedMethod, UnsortedMethod},
		{ClusterMethod, UnsortedMethod}, {SortedMethod, DeclusterMethod}, {ClusterMethod, DeclusterMethod}}
	for _, n := range []int{5000, big} {
		for _, hit := range []float64{0.3, 1, 3} {
			pr, err := workload.GenPair(workload.Params{N: n, Omega: pi + 1, HitRate: hit, SelLarger: 1, SelSmaller: 1, Seed: 81})
			if err != nil {
				t.Fatal(err)
			}
			larger, smaller := pairRelations(t, pr, pi)
			for _, m := range methods {
				q := JoinQuery{
					Larger: larger, Smaller: smaller, LargerKey: "key", SmallerKey: "key",
					LargerProject: projNames(pi), SmallerProject: projNames(pi),
					Strategy: DSMPostDecluster, LargerMethod: m[0], SmallerMethod: m[1],
				}
				ref, builds := q, []int{2, 0}
				if m[0] == AutoMethod {
					ref.LargerMethod, ref.SmallerMethod = UnsortedMethod, UnsortedMethod
				} else if m != [2]ProjMethod{UnsortedMethod, UnsortedMethod} {
					builds = []int{0, 0}
				}
				want, err := ProjectJoin(ref)
				if err != nil {
					t.Fatal(err)
				}
				for _, comp := range []Compression{CompressionOff, CompressionOn} {
					rq := q
					rq.Larger, rq.Smaller = pairRelations(t, pr, pi, WithCompression())
					rq.Parallelism, rq.Runtime, rq.Compression, rq.Trace = 2, rt, comp, true
					for rep, builds := range builds {
						tag := fmt.Sprintf("N=%d hit=%g %v/%v compression=%v query %d", n, hit, m[0], m[1], comp, rep+1)
						got, err := ProjectJoin(rq)
						if err != nil {
							t.Fatalf("%s: %v", tag, err)
						}
						requireSameResult(t, tag, got, want)
						if m[0] == AutoMethod && !strings.Contains(got.Plan, "methods=u/u") {
							t.Fatalf("%s: the runtime planned %s, want methods=u/u", tag, got.Plan)
						}
						if b := traceSteps(got, "build-join-image"); b != builds {
							t.Fatalf("%s: %d build-join-image steps, want %d", tag, b, builds)
						}
						if comp == CompressionOn {
							uu := strings.Contains(got.Plan, "methods=u/u")
							if d, w := got.Timing.CompressedCols, decodedEncodings(rq, got.Plan); (w > 0) != uu || d != int64(w) {
								t.Fatalf("%s: decoded %d encodings, want %d (> 0 for u/u only)", tag, d, w)
							}
						}
						got.Release()
					}
				}
			}
		}
	}

	pr, err := workload.GenPair(workload.Params{N: big, Omega: pi + 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 86})
	if err != nil {
		t.Fatal(err)
	}
	a, b := pairRelations(t, pr, pi)
	// run checks q over the shared relations against the serial run and
	// returns its build steps: clusterings, column copies.
	run := func(tag string, q JoinQuery) (int, int) {
		t.Helper()
		q.LargerKey, q.SmallerKey, q.Strategy = "key", "key", DSMPostDecluster
		want, err := ProjectJoin(q)
		if err != nil {
			t.Fatal(err)
		}
		q.Parallelism, q.Runtime, q.Trace = 2, rt, true
		got, err := ProjectJoin(q)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		requireSameResult(t, tag, got, want)
		defer got.Release()
		return traceSteps(got, "build-join-image"), traceSteps(got, "build-image-column")
	}
	all := []string{"key", "a1", "a2"}
	for _, c := range []struct {
		name            string
		larger          *Relation
		lproj, sproj    []string
		lm, sm          ProjMethod
		wantCopies      int // column copies the query adds to the two images
		wantClusterings int
	}{
		{"one column", a, []string{"a1"}, []string{"a1"}, UnsortedMethod, UnsortedMethod, 2, 2},
		// The images hold the keys' hashes, not the keys: a projected key
		// column is copied like any other, once per image.
		{"key column", a, []string{"key"}, []string{"key"}, UnsortedMethod, UnsortedMethod, 2, 0},
		{"a column the images lack", a, []string{"a1", "a2"}, []string{"a2"}, UnsortedMethod, UnsortedMethod, 2, 0},
		{"all columns, other roles", b, all, all, UnsortedMethod, UnsortedMethod, 0, 0},
		// A forced non-u method clusters per query: the images do not grow.
		{"all columns, other roles, u/d", b, all, all, UnsortedMethod, DeclusterMethod, 0, 0},
		{"all columns, other roles, c/d", b, all, all, ClusterMethod, DeclusterMethod, 0, 0},
		{"all columns, other roles, s/u", b, all, all, SortedMethod, UnsortedMethod, 0, 0},
		{"one column, s/u", a, []string{"a2"}, []string{"a1"}, SortedMethod, UnsortedMethod, 0, 0},
	} {
		q := JoinQuery{Larger: c.larger, Smaller: a, LargerProject: c.lproj, SmallerProject: c.sproj, LargerMethod: c.lm, SmallerMethod: c.sm}
		if c.larger == a {
			q.Smaller = b
		}
		before := a.JoinImageBytes() + b.JoinImageBytes()
		clusterings, copies := run(c.name, q)
		if clusterings != c.wantClusterings || copies != c.wantCopies {
			t.Fatalf("%s: %d clusterings and %d column copies, want %d and %d", c.name, clusterings, copies, c.wantClusterings, c.wantCopies)
		}
		if c.wantClusterings == 0 {
			if grown := a.JoinImageBytes() + b.JoinImageBytes() - before; grown != 4*int64(big*copies) {
				t.Fatalf("%s: the images grew by %d bytes for %d column copies of %d tuples", c.name, grown, copies, big)
			}
		}
	}
}

// TestJoinImageBuiltOnce: eight concurrent first queries on fresh
// relations cluster each relation once and copy (raw) or encode
// (CompressionOn) each projected column once between them. A raw u/u
// image holds 4 B per tuple of key hashes, 4 B per tuple per projected column
// — no oids — plus its partition offsets; a compressed one holds the
// encodings' bytes in place of the column copies.
func TestJoinImageBuiltOnce(t *testing.T) {
	const pi, queries = 2, 8
	pr, err := workload.GenPair(workload.Params{N: 64 << 10, Omega: pi + 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 82})
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(RuntimeConfig{Workers: 2, MaxConcurrentQueries: queries})
	defer rt.Close()
	for _, comp := range []Compression{CompressionOff, CompressionOn} {
		larger, smaller := pairRelations(t, pr, pi, WithCompression())
		q := JoinQuery{
			Larger: larger, Smaller: smaller, LargerKey: "key", SmallerKey: "key",
			LargerProject: projNames(pi), SmallerProject: projNames(pi),
			LargerMethod: UnsortedMethod, SmallerMethod: UnsortedMethod,
			Parallelism: 2, Runtime: rt, Compression: comp, Trace: true,
		}
		plan, err := PlanJoin(q)
		if err != nil {
			t.Fatal(err)
		}
		results := make([]*Result, queries)
		errs := make([]error, queries)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range results {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				results[i], errs[i] = ProjectJoin(q)
			}()
		}
		close(start)
		wg.Wait()
		clusterings, copies := 0, 0
		for i, res := range results {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if !reflect.DeepEqual(res.Cols, results[0].Cols) {
				t.Fatalf("compression=%v query %d: result differs from query 0", comp, i)
			}
			clusterings += traceSteps(res, "build-join-image")
			copies += traceSteps(res, "build-image-column")
		}
		if clusterings != 2 || copies != 2*pi {
			t.Fatalf("compression=%v: %d concurrent first queries clustered %d times and built %d columns, want 2 and %d",
				comp, queries, clusterings, copies, 2*pi)
		}
		for _, r := range []*Relation{larger, smaller} {
			cols := int64(4 * r.Len() * pi)
			if comp == CompressionOn {
				r.imgMu.Lock()
				cols = 0
				for _, name := range projNames(pi) {
					cols += int64(r.joinImgs["key"].encs[name].CompressedBytes())
				}
				r.imgMu.Unlock()
			}
			if got, want := r.JoinImageBytes(), 4*int64(r.Len())+cols+8*int64(1<<plan.JoinBits+1); got != want {
				t.Errorf("compression=%v %s: JoinImageBytes = %d, want %d", comp, r.Name, got, want)
			}
		}
	}
}

// imageHolds reports, for each of the named columns, whether r's join
// image on "key" holds a raw image-order copy of it and whether it holds
// an encoding of that copy.
func imageHolds(r *Relation, names []string) (raw, enc []bool) {
	r.imgMu.Lock()
	defer r.imgMu.Unlock()
	ki := r.joinImgs["key"]
	for _, n := range names {
		raw, enc = append(raw, ki.cols[n] != nil), append(enc, ki.encs[n] != nil)
	}
	return raw, enc
}

// imageEncodings counts the named columns r's join image on "key" holds
// encoded.
func imageEncodings(r *Relation, names []string) int {
	_, enc := imageHolds(r, names)
	return countTrue(enc)
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// TestRuntimeAutoPlansUnsorted: at 200 Ki tuples a side, beyond the
// Pentium 4's 512 KB L2, a DSM post-projection query with Auto methods
// on a runtime that declares nothing (Pentium4()) plans u/u over join
// images — raw and compressed, at π 1 and 4 — while the same query in
// paper mode plans c/d by §4.1. PlanJoin agrees with each run, and the
// runtime result is the serial u/u run's, byte for byte.
func TestRuntimeAutoPlansUnsorted(t *testing.T) {
	if testing.Short() {
		t.Skip("needs relations beyond the declared L2")
	}
	const n = 200 << 10
	rt := NewRuntime(RuntimeConfig{Workers: 2})
	defer rt.Close()
	for _, pi := range []int{1, 4} {
		larger, smaller := compressedRelations(t,
			workload.Params{N: n, Omega: pi + 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 89}, pi)
		for _, comp := range []Compression{CompressionOff, CompressionOn} {
			tag := fmt.Sprintf("pi=%d compression=%v", pi, comp)
			q := JoinQuery{
				Larger: larger, Smaller: smaller, LargerKey: "key", SmallerKey: "key",
				LargerProject: projNames(pi), SmallerProject: projNames(pi), Compression: comp,
			}
			if got := requirePlanAgrees(t, tag+" paper mode", q); !strings.Contains(got, "methods=c/d") {
				t.Errorf("%s: paper mode planned %s, want methods=c/d", tag, got)
			}
			ref := q
			ref.LargerMethod, ref.SmallerMethod = UnsortedMethod, UnsortedMethod
			want, err := ProjectJoin(ref)
			if err != nil {
				t.Fatal(err)
			}
			q.Parallelism, q.Runtime = 2, rt
			if got := requirePlanAgrees(t, tag+" runtime", q); !strings.Contains(got, "methods=u/u") {
				t.Errorf("%s: the runtime planned %s, want methods=u/u", tag, got)
			}
			got, err := ProjectJoin(q)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, tag, got, want)
			got.Release()
		}
	}
}

// TestForcedMethodsBuildNoJoinImage: once u/u traffic has built both
// images (a compressed query encodings of the projected columns and no
// raw copies, a raw one the raw copies), forced c/u, u/d, s/d and c/d
// queries on the runtime, raw and compressed, cluster per query as
// paper mode does: they record no build-join-image step, leave
// JoinImageBytes as it was and return their serial run's bytes.
func TestForcedMethodsBuildNoJoinImage(t *testing.T) {
	const pi = 2
	pr, err := workload.GenPair(workload.Params{N: 40000, Omega: pi + 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 87})
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(RuntimeConfig{Workers: 2})
	defer rt.Close()
	larger, smaller := pairRelations(t, pr, pi, WithCompression())
	run := func(tag string, lm, sm ProjMethod, comp Compression) *Result {
		t.Helper()
		q := JoinQuery{
			Larger: larger, Smaller: smaller, LargerKey: "key", SmallerKey: "key",
			LargerProject: projNames(pi), SmallerProject: projNames(pi),
			LargerMethod: lm, SmallerMethod: sm,
		}
		want, err := ProjectJoin(q)
		if err != nil {
			t.Fatal(err)
		}
		q.Parallelism, q.Runtime, q.Compression, q.Trace = 2, rt, comp, true
		got, err := ProjectJoin(q)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		requireSameResult(t, tag, got, want)
		return got
	}
	run("u/u compressed", UnsortedMethod, UnsortedMethod, CompressionOn).Release()
	for _, r := range []*Relation{larger, smaller} {
		raw, enc := imageHolds(r, projNames(pi))
		if countTrue(raw) != 0 || countTrue(enc) != pi {
			t.Fatalf("after u/u compressed: %s image holds raw copies %v and encodings %v of %v, want encodings only",
				r.Name, raw, enc, projNames(pi))
		}
	}
	run("u/u", UnsortedMethod, UnsortedMethod, CompressionOff).Release()
	before := [2]int64{larger.JoinImageBytes(), smaller.JoinImageBytes()}
	for _, m := range [][2]ProjMethod{{ClusterMethod, UnsortedMethod}, {UnsortedMethod, DeclusterMethod},
		{SortedMethod, DeclusterMethod}, {ClusterMethod, DeclusterMethod}} {
		for _, comp := range []Compression{CompressionOff, CompressionOn} {
			tag := fmt.Sprintf("%v/%v compression=%v", m[0], m[1], comp)
			got := run(tag, m[0], m[1], comp)
			if b := traceSteps(got, "build-join-image") + traceSteps(got, "build-image-column"); b != 0 {
				t.Errorf("%s: %d image build steps, want 0", tag, b)
			}
			got.Release()
			if after := [2]int64{larger.JoinImageBytes(), smaller.JoinImageBytes()}; after != before {
				t.Errorf("%s: JoinImageBytes moved from %v to %v", tag, before, after)
			}
		}
	}
}

// TestJoinImageIncompressibleColumnStaysRaw: a column of full-range
// random values does not shrink in image order, so a CompressionOn
// query's image keeps it as a raw image-order copy and the query
// projects it raw, beside an encoded payload column — byte-identical to
// the raw serial run, with only the encoded column decoded and the
// image's bytes counted at each part's size. A raw query that follows
// adds a raw copy of the encoded column alone.
func TestJoinImageIncompressibleColumnStaysRaw(t *testing.T) {
	const n = 40000
	pr, err := workload.GenPair(workload.Params{N: n, Omega: 2, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 88})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(88, 89))
	mk := func(name string, wr *workload.Relation) *Relation {
		noise := make([]int32, len(wr.Key()))
		for i := range noise {
			noise[i] = int32(rng.Uint32())
		}
		cols := []Column{{Name: "key", Values: wr.Key()}, {Name: "a1", Values: wr.PayloadCol(1)}, {Name: "r", Values: noise}}
		r, err := NewRelationOpts(name, cols, WithCompression())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	larger, smaller := mk("larger", pr.Larger), mk("smaller", pr.Smaller)
	rt := NewRuntime(RuntimeConfig{Workers: 2})
	defer rt.Close()
	proj := []string{"a1", "r"}
	q := JoinQuery{
		Larger: larger, Smaller: smaller, LargerKey: "key", SmallerKey: "key",
		LargerProject: proj, SmallerProject: proj,
		LargerMethod: UnsortedMethod, SmallerMethod: UnsortedMethod,
	}
	want, err := ProjectJoin(q)
	if err != nil {
		t.Fatal(err)
	}
	q.Parallelism, q.Runtime, q.Compression, q.Trace = 2, rt, CompressionOn, true
	got, err := ProjectJoin(q)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "compressed", got, want)
	if got.Timing.CompressedCols != 2 {
		t.Fatalf("compressed: decoded %d encodings, want 2 (a1 of each side)", got.Timing.CompressedCols)
	}
	got.Release()
	for _, r := range []*Relation{larger, smaller} {
		if raw, enc := imageHolds(r, proj); !slices.Equal(raw, []bool{false, true}) || !slices.Equal(enc, []bool{true, false}) {
			t.Fatalf("%s: image holds raw copies %v and encodings %v of %v, want a1 encoded and r raw", r.Name, raw, enc, proj)
		}
		r.imgMu.Lock()
		ki := r.joinImgs["key"]
		wantBytes := 4*int64(2*r.Len()) + int64(ki.encs["a1"].CompressedBytes()) + 8*int64(len(ki.Offsets))
		r.imgMu.Unlock()
		if b := r.JoinImageBytes(); b != wantBytes {
			t.Fatalf("%s: JoinImageBytes = %d, want %d (key hashes and r raw, a1 encoded, offsets)", r.Name, b, wantBytes)
		}
	}

	q.Compression = CompressionOff
	got, err = ProjectJoin(q)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "raw after compressed", got, want)
	if c := traceSteps(got, "build-image-column"); c != 2 || got.Timing.CompressedCols != 0 {
		t.Fatalf("raw after compressed: %d column builds and %d decodes, want 2 (a1 of each side) and 0", c, got.Timing.CompressedCols)
	}
	got.Release()
}

// TestJoinImageTwoPartners: one relation joined with two partners of
// different size is clustered on different join bits for each, so its
// image is rebuilt whenever the partner changes — and every result
// stays the serial run of the runtime's plan, u/u.
func TestJoinImageTwoPartners(t *testing.T) {
	const n = 200000
	rel := func(name string, rows int, key func(i int) int32) *Relation {
		keys, vals := make([]int32, rows), make([]int32, rows)
		for i := range keys {
			keys[i], vals[i] = key(i), int32(3*i+1)
		}
		r, err := NewRelation(name, Column{Name: "key", Values: keys}, Column{Name: "a1", Values: vals})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	shared := rel("shared", n, func(i int) int32 { return int32(i * 7919 % n) })
	partners := []*Relation{
		rel("few", 50000, func(i int) int32 { return int32(4 * i) }),
		rel("many", n, func(i int) int32 { return int32(n - 1 - i) }),
	}
	rt := NewRuntime(RuntimeConfig{Workers: 2})
	defer rt.Close()
	bits := map[int]bool{}
	for round := range 3 {
		for _, p := range partners {
			q := JoinQuery{
				Larger: shared, Smaller: p, LargerKey: "key", SmallerKey: "key",
				LargerProject: []string{"a1"}, SmallerProject: []string{"a1"},
				LargerMethod: UnsortedMethod, SmallerMethod: UnsortedMethod,
			}
			want, err := ProjectJoin(q)
			if err != nil {
				t.Fatal(err)
			}
			q.Parallelism, q.Runtime, q.LargerMethod, q.SmallerMethod = 2, rt, AutoMethod, AutoMethod
			got, err := ProjectJoin(q)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, fmt.Sprintf("round %d, partner %s", round, p.Name), got, want)
			plan, err := PlanJoin(q)
			if err != nil {
				t.Fatal(err)
			}
			bits[plan.JoinBits] = true
			got.Release()
		}
	}
	if len(bits) != 2 {
		t.Fatalf("the two partners planned join bits %v: the test needs two different values", bits)
	}
}

// TestNSMPostAfterJoinImages: NSM post-projection queries that follow
// runtime DSM queries on the same relations stay the serial run's bytes.
// The images are keyed by relation and column, never by a slice
// address: leased key buffers reuse addresses, and an address-keyed
// cache once served NSM-post-jive a stale clustering.
func TestNSMPostAfterJoinImages(t *testing.T) {
	const pi = 2
	larger, smaller := workloadRelations(t,
		workload.Params{N: 40000, Omega: pi + 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 83}, pi)
	rt := NewRuntime(RuntimeConfig{Workers: 2})
	defer rt.Close()
	base := JoinQuery{
		Larger: larger, Smaller: smaller, LargerKey: "key", SmallerKey: "key",
		LargerProject: projNames(pi), SmallerProject: projNames(pi),
	}
	strategies := []Strategy{DSMPostDecluster, NSMPostJive, NSMPostDecluster, DSMPostDecluster, NSMPostJive}
	want := map[Strategy]*Result{}
	for _, st := range strategies {
		if want[st] != nil {
			continue
		}
		q := base
		q.Strategy = st
		res, err := ProjectJoin(q)
		if err != nil {
			t.Fatal(err)
		}
		want[st] = res
	}
	for round := range 2 {
		for _, st := range strategies {
			q := base
			q.Strategy, q.Parallelism, q.Runtime = st, 2, rt
			got, err := ProjectJoin(q)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, fmt.Sprintf("round %d %v", round, st), got, want[st])
			got.Release()
		}
	}
	if larger.JoinImageBytes() == 0 {
		t.Fatal("the runtime DSM queries built no join image: the test observes nothing")
	}
}

// TestPaperModeBuildsNoJoinImage: paper-mode queries cluster per query,
// as the paper does — ten of them record no build-join-image step and
// leave the relations without a join image.
func TestPaperModeBuildsNoJoinImage(t *testing.T) {
	const pi = 1
	larger, smaller := workloadRelations(t,
		workload.Params{N: 40000, Omega: pi + 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 84}, pi)
	q := JoinQuery{
		Larger: larger, Smaller: smaller, LargerKey: "key", SmallerKey: "key",
		LargerProject: projNames(pi), SmallerProject: projNames(pi), Trace: true,
	}
	for i := range 10 {
		q.LargerMethod, q.SmallerMethod = AutoMethod, AutoMethod
		if i%2 == 1 {
			q.LargerMethod, q.SmallerMethod = UnsortedMethod, UnsortedMethod
		}
		res, err := ProjectJoin(q)
		if err != nil {
			t.Fatal(err)
		}
		if b := traceSteps(res, "build-join-image"); b != 0 {
			t.Fatalf("query %d: a serial run recorded %d build-join-image steps", i, b)
		}
	}
	for _, r := range []*Relation{larger, smaller} {
		if b := r.JoinImageBytes(); b != 0 {
			t.Fatalf("%s: ten paper-mode queries left a %d-byte join image", r.Name, b)
		}
	}
}

// TestJoinImageOneDuplicateKey: a join image's distinctness is checked,
// never assumed. The benchmark's 1 Mi hit-rate-1 pair, whose smaller
// image is Distinct, but with one smaller key written over by the key of
// another smaller tuple — one the first larger tuple carries — so that
// exactly one key is repeated: that image is not Distinct, every probe
// walks its chain to the end, and the runtime u/u result is the serial
// u/u run's, the larger tuples of the repeated key matched twice.
func TestJoinImageOneDuplicateKey(t *testing.T) {
	const pi = 2
	n := 1 << 20
	if raceEnabled {
		n = 1 << 16
	}
	pr, err := workload.GenPair(workload.Params{N: n, Omega: pi + 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 91})
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(RuntimeConfig{Workers: 2})
	defer rt.Close()
	lk, sk := pr.Larger.Key(), pr.Smaller.Key()
	keyed, err := NewRelation("smaller", Column{Name: "key", Values: slices.Clone(sk)},
		Column{Name: "a1", Values: pr.Smaller.PayloadCol(1)}, Column{Name: "a2", Values: pr.Smaller.PayloadCol(2)})
	if err != nil {
		t.Fatal(err)
	}
	dup := lk[0]
	i := (slices.Index(sk, dup) + 1) % n
	gone := sk[i]
	sk[i] = dup
	larger, smaller := pairRelations(t, pr, pi)
	want := n
	for _, k := range lk {
		if k == dup {
			want++
		} else if k == gone {
			want--
		}
	}

	for _, c := range []struct {
		smaller  *Relation
		distinct bool
		rows     int
	}{{keyed, true, n}, {smaller, false, want}} {
		q := JoinQuery{
			Larger: larger, Smaller: c.smaller, LargerKey: "key", SmallerKey: "key",
			LargerProject: projNames(pi), SmallerProject: projNames(pi), Strategy: DSMPostDecluster,
			Parallelism: 2, Runtime: rt,
		}
		got, err := ProjectJoin(q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(got.Plan, "methods=u/u") {
			t.Fatalf("the runtime planned %s, want methods=u/u", got.Plan)
		}
		c.smaller.imgMu.Lock()
		distinct := c.smaller.joinImgs["key"].Distinct
		c.smaller.imgMu.Unlock()
		tag := fmt.Sprintf("smaller side distinct=%v", c.distinct)
		if distinct != c.distinct {
			t.Fatalf("%s: the image's Distinct is %v", tag, distinct)
		}
		if got.N != c.rows {
			t.Fatalf("%s: %d rows, the map count %d", tag, got.N, c.rows)
		}
		ref := q
		ref.Parallelism, ref.Runtime = 0, nil
		ref.LargerMethod, ref.SmallerMethod = UnsortedMethod, UnsortedMethod
		wantRes, err := ProjectJoin(ref)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, tag, got, wantRes)
		got.Release()
	}
}

// TestCompressedServicePhases pins the phases of the service's
// compressed query shape (svc_engine_compressed: DSM post-projection,
// u/u, CompressionOn, on a runtime): one phase, probe-fetch-images, in
// which each partition's morsel probes and then decodes its image
// encodings where it fetches them — no phase reads a key column, and
// the plan lists no decode phase at all. The first query builds the
// images — each relation's clustering and an encoding of each
// projected column in image order — as steps inside that phase; a
// repeat builds none.
func TestCompressedServicePhases(t *testing.T) {
	const pi = 2
	larger, smaller := compressedRelations(t,
		workload.Params{N: 40000, Omega: pi + 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 85}, pi)
	rt := NewRuntime(RuntimeConfig{Workers: 2})
	defer rt.Close()
	q := JoinQuery{
		Larger: larger, Smaller: smaller, LargerKey: "key", SmallerKey: "key",
		LargerProject: projNames(pi), SmallerProject: projNames(pi),
		LargerMethod: UnsortedMethod, SmallerMethod: UnsortedMethod,
		Compression: CompressionOn, Parallelism: 2, Runtime: rt, Trace: true,
	}
	wantPhases := []string{"probe-fetch-images"}
	for rep, builds := range []int{2, 0} {
		res, err := ProjectJoin(q)
		if err != nil {
			t.Fatal(err)
		}
		if got := tracePhases(res); !slices.Equal(got, wantPhases) {
			t.Errorf("query %d: phases %v, want %v", rep+1, got, wantPhases)
		}
		if b := traceSteps(res, "build-join-image"); b != builds {
			t.Errorf("query %d: %d build-join-image steps, want %d", rep+1, b, builds)
		}
		if b := traceSteps(res, "build-image-column"); b != builds*pi {
			t.Errorf("query %d: %d build-image-column steps, want %d", rep+1, b, builds*pi)
		}
		// Each step lies inside the first phase's span.
		var join, step [][2]int64
		for _, ev := range res.Trace.t.Events() {
			switch {
			case ev.Name == wantPhases[0]:
				join = append(join, [2]int64{ev.TS, ev.TS + ev.Dur})
			case ev.Cat == exec.StepCat:
				step = append(step, [2]int64{ev.TS, ev.TS + ev.Dur})
			}
		}
		for _, s := range step {
			if len(join) != 1 || s[0] < join[0][0] || s[1] > join[0][1] {
				t.Errorf("query %d: step %v outside the join phase %v", rep+1, s, join)
			}
		}
		res.Release()
	}
}

// TestCompressedImageHighWater: a compressed u/u query over join images
// leases no decoded column — each partition's morsel decodes one
// partition at a time into its worker's scratch — so a warmed query's
// peak leased bytes (Timing.Mem.HighWater) are at most the raw query's
// plus that scratch, one widest partition per worker, plus the raw
// query's larger result columns, π × 4 B × N (class-rounded, as the
// arena leased them): a key-FK raw query serves
// those as views of the join image and leases none, while the
// compressed query decodes its larger columns into result arrays.
// Whole-column decode phases held 16 MiB more at 1 Mi × π = 2
// (41 946 112 B against 25 167 872 B raw, when the raw query still
// leased its larger columns).
func TestCompressedImageHighWater(t *testing.T) {
	if testing.Short() {
		t.Skip("needs full-size relations")
	}
	const pi, workers = 2, 2
	n := 1 << 20
	if raceEnabled {
		n = equivalenceN
	}
	larger, smaller := compressedRelations(t,
		workload.Params{N: n, Omega: pi + 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 86}, pi)
	rt := NewRuntime(RuntimeConfig{Workers: workers})
	defer rt.Close()
	q := JoinQuery{
		Larger: larger, Smaller: smaller, LargerKey: "key", SmallerKey: "key",
		LargerProject: projNames(pi), SmallerProject: projNames(pi),
		LargerMethod: UnsortedMethod, SmallerMethod: UnsortedMethod,
		Parallelism: workers, Runtime: rt,
	}
	highWater := func(c Compression) int64 {
		q.Compression = c
		var hw int64
		// The first query builds the images and warms the arena.
		for range 2 {
			res, err := ProjectJoin(q)
			if err != nil {
				t.Fatal(err)
			}
			if res.Compressed != (c == CompressionOn) {
				t.Fatalf("%v: Compressed = %v", c, res.Compressed)
			}
			hw = res.Timing.Mem.HighWater
			res.Release()
		}
		return hw
	}
	raw, comp := highWater(CompressionOff), highWater(CompressionOn)
	widest := 0
	for _, r := range []*Relation{larger, smaller} {
		offs := r.joinImgs["key"].Offsets
		for p := 0; p+1 < len(offs); p++ {
			widest = max(widest, offs[p+1]-offs[p])
		}
	}
	// Each view replaced an arena buffer of 4 B × N rounded up to the
	// arena's size class, a power of two.
	scratch, views := int64(workers*4*widest), int64(pi)<<bits.Len(uint(4*n-1))
	if comp > raw+scratch+views {
		t.Fatalf("compressed high water %d B, raw %d B: %d B over the raw query plus the per-worker scratch (%d B) and the larger columns the raw query serves as views (%d B)",
			comp, raw, comp-raw, scratch, views)
	}
	t.Logf("high water: compressed %d B, raw %d B, per-worker scratch %d B, raw larger views %d B", comp, raw, scratch, views)
}

// TestImageQueryTimingTiles: a runtime u/u query over join images runs
// as one phase, whose wall time is apportioned to Join, ProjectLarger
// and ProjectSmaller by the probe and fetch time summed inside its
// morsels. The three plus Queue still tile Total, within 5 %, with no
// time in any other kind, and the smaller side's gathers show in
// ProjectSmaller — raw and compressed, the first query building the
// images inside the phase.
func TestImageQueryTimingTiles(t *testing.T) {
	const pi = 2
	larger, smaller := compressedRelations(t,
		workload.Params{N: equivalenceN, Omega: pi + 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 88}, pi)
	rt := NewRuntime(RuntimeConfig{Workers: 2})
	defer rt.Close()
	for _, comp := range []Compression{CompressionOff, CompressionOn} {
		q := JoinQuery{
			Larger: larger, Smaller: smaller, LargerKey: "key", SmallerKey: "key",
			LargerProject: projNames(pi), SmallerProject: projNames(pi),
			Parallelism: 2, Runtime: rt, Compression: comp,
		}
		for range 2 {
			res, err := ProjectJoin(q)
			if err != nil {
				t.Fatal(err)
			}
			tm := res.Timing
			// Queue's morsel-queue waits lie inside the phase times
			// (Timing): counted once, the parts tile Total.
			var inPhases time.Duration
			for _, d := range res.runInfo.Timings.QueueByKind {
				inPhases += d
			}
			res.Release()
			if tm.Scan != 0 || tm.ReorderJI != 0 || tm.Decluster != 0 {
				t.Fatalf("%v: time outside the fused kinds: %v", comp, tm)
			}
			if tm.ProjectSmaller <= 0 {
				t.Fatalf("%v: no smaller-side fetch time: %v", comp, tm)
			}
			sum := tm.Join + tm.ProjectLarger + tm.ProjectSmaller + tm.Queue - inPhases
			if d := sum - tm.Total; d > tm.Total/20 || -d > tm.Total/20 {
				t.Fatalf("%v: join+projL+projS+queue = %v (%v of the queue inside the phases), total %v: more than 5 %% apart (%v)",
					comp, sum, inPhases, tm.Total, tm)
			}
		}
	}
}
