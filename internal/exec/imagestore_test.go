package exec

import (
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"radixdecluster/internal/obs"
	"radixdecluster/internal/radix"
)

// storeRelation is a relation for the image-store tests: "key" (random
// keys), "a" and "b" (narrow values, which encode smaller), "r" (full
// range random values, which do not) and "pos" (each row's number).
func storeRelation(n int) map[string][]int32 {
	rng := rand.New(rand.NewPCG(61, 62))
	cols := map[string][]int32{}
	for _, name := range []string{"key", "a", "b", "r", "pos"} {
		cols[name] = make([]int32, n)
	}
	for i := range n {
		cols["key"][i] = int32(rng.IntN(n))
		cols["a"][i] = int32(rng.IntN(1 << 10))
		cols["b"][i] = int32(rng.IntN(1 << 6))
		cols["r"][i] = int32(rng.Uint32())
		cols["pos"][i] = int32(i)
	}
	return cols
}

// storeQuery is one image lookup: the columns projected, the radix
// bits, and whether the plan is compressed.
type storeQuery struct {
	proj       []string
	bits       int
	compressed bool
}

// image looks q up in s, joined on "key" of the relation cols.
func (q storeQuery) image(s *ImageStore, e *Engine, cols map[string][]int32) (Image, error) {
	vals := make([][]int32, len(q.proj))
	for i, name := range q.proj {
		vals[i] = cols[name]
	}
	return s.Image(e, "key", cols["key"], q.proj, vals, radix.Opts{Bits: q.bits}, q.compressed)
}

// TestImageStoreBuildDecisions holds the store's decisions to what an
// image lacks. Each case runs its earlier queries on a fresh store, then
// its query on a traced engine, and checks the steps the query ran, the
// byte total after it, and that every column it was handed holds the
// base values in image order — encoded for a compressed plan where the
// encoding shrinks the column, raw otherwise.
func TestImageStoreBuildDecisions(t *testing.T) {
	const n = 3 * MinParallelN
	cols := storeRelation(n)
	raw := func(bits int, proj ...string) storeQuery { return storeQuery{proj, bits, false} }
	comp := func(bits int, proj ...string) storeQuery { return storeQuery{proj, bits, true} }
	for _, c := range []struct {
		name          string
		before        []storeQuery
		query         storeQuery
		clusterings   int
		columns       int
		raw, enc      []string // the columns the image then holds raw and encoded
		handedEncoded []bool
	}{
		{"first raw query", nil, raw(4, "a"), 1, 1, []string{"a"}, nil, []bool{false}},
		{"repeated query", []storeQuery{raw(4, "a")}, raw(4, "a"), 0, 0, []string{"a"}, nil, []bool{false}},
		{"query adds a column", []storeQuery{raw(4, "a")}, raw(4, "a", "b"), 0, 1, []string{"a", "b"}, nil, []bool{false, false}},
		{"compressed after raw", []storeQuery{raw(4, "a")}, comp(4, "a"), 0, 1, []string{"a"}, []string{"a"}, []bool{true}},
		{"raw after compressed", []storeQuery{comp(4, "a")}, raw(4, "a"), 0, 1, []string{"a"}, []string{"a"}, []bool{false}},
		{"incompressible column kept raw", nil, comp(4, "a", "r"), 1, 2, []string{"r"}, []string{"a"}, []bool{true, false}},
		{"raw after incompressible", []storeQuery{comp(4, "r")}, raw(4, "r"), 0, 0, []string{"r"}, nil, []bool{false}},
		{"incompressible column not retried", []storeQuery{comp(4, "r")}, comp(4, "r"), 0, 0, []string{"r"}, nil, []bool{false}},
		{"another radix field rebuilds", []storeQuery{raw(4, "a", "b"), comp(4, "a")}, raw(5, "a"), 1, 1, []string{"a"}, nil, []bool{false}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var s ImageStore
			e := NewEngine(nil, 0)
			defer e.Close()
			for _, q := range c.before {
				if _, err := q.image(&s, e, cols); err != nil {
					t.Fatal(err)
				}
			}
			tr := obs.NewTrace(c.name)
			e.trace = tr
			o := radix.Opts{Bits: c.query.bits}
			img, err := c.query.image(&s, e, cols)
			if err != nil {
				t.Fatal(err)
			}
			steps := map[string]int{}
			for _, ev := range tr.Events() {
				if ev.Cat == StepCat {
					steps[ev.Name]++
				}
			}
			if steps["build-join-image"] != c.clusterings || steps["build-image-column"] != c.columns {
				t.Fatalf("steps %v, want %d clusterings and %d columns", steps, c.clusterings, c.columns)
			}

			ki := s.keys["key"]
			var gotRaw, gotEnc []string
			want := 4*int64(n) + 8*int64(1<<o.Bits+1)
			for name, h := range ki.Cols {
				if h.Raw != nil {
					gotRaw = append(gotRaw, name)
					want += 4 * int64(n)
				}
				if h.Enc != nil {
					gotEnc = append(gotEnc, name)
					want += int64(h.Enc.CompressedBytes())
				}
			}
			slices.Sort(gotRaw)
			slices.Sort(gotEnc)
			if !slices.Equal(gotRaw, c.raw) || !slices.Equal(gotEnc, c.enc) {
				t.Fatalf("the image holds %v raw and %v encoded, want %v and %v", gotRaw, gotEnc, c.raw, c.enc)
			}
			if got := s.Bytes(); got != want {
				t.Fatalf("Bytes = %d, want %d", got, want)
			}

			ref, err := raw(c.query.bits, "pos").image(&ImageStore{}, e, cols)
			if err != nil {
				t.Fatal(err)
			}
			for i, name := range c.query.proj {
				col := img.Cols[i]
				vals := col.Raw
				if encoded := c.query.compressed && col.Enc != nil; encoded != c.handedEncoded[i] {
					t.Fatalf("column %s handed encoded: %v, want %v", name, encoded, c.handedEncoded[i])
				} else if encoded {
					vals = make([]int32, n)
					if err := col.Enc.DecompressRangeInto(vals, 0, n); err != nil {
						t.Fatal(err)
					}
				}
				for j, p := range ref.Cols[0].Raw {
					if vals[j] != cols[name][p] {
						t.Fatalf("column %s, image position %d: %d, the base value %d", name, j, vals[j], cols[name][p])
					}
				}
			}
		})
	}
}

// TestImageStoreBytesWithoutBuildLock: the byte total is read without
// any build lock. With a key column's build lock held, as a build holds
// it for its whole length, Bytes still returns the total of what was
// built before (were it to wait for the lock, the test would hang).
func TestImageStoreBytesWithoutBuildLock(t *testing.T) {
	const n = 1000
	var s ImageStore
	e := NewEngine(nil, 0)
	defer e.Close()
	if _, err := (storeQuery{[]string{"a"}, 3, false}).image(&s, e, storeRelation(n)); err != nil {
		t.Fatal(err)
	}
	ki := s.keyImage("key")
	ki.mu.Lock()
	defer ki.mu.Unlock()
	if got, want := s.Bytes(), int64(4*n+4*n+8*(1<<3+1)); got != want {
		t.Fatalf("Bytes = %d under the build lock, want %d", got, want)
	}
}

// TestImageStoreConcurrentQueries: eight queries at once on a fresh
// store, on two key columns, raw and compressed, while a reader polls
// Bytes and Held. Between them they cluster each key column once and
// build each column's copy and encoding once, every query of a key
// column and plan gets the same columns, and the total is the images'.
func TestImageStoreConcurrentQueries(t *testing.T) {
	const n = 2 * MinParallelN
	cols := storeRelation(n)
	rt := testRuntime(t)
	imgs := make([]Image, 8)
	traces := make([]*obs.Trace, len(imgs))
	var s ImageStore
	var wg sync.WaitGroup
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				_, _ = s.Bytes(), s.Held()
			}
		}
	}()
	for i := range imgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := NewEngine(rt, 2)
			defer e.Close()
			traces[i] = obs.NewTrace("query")
			e.trace = traces[i]
			key := []string{"key", "pos"}[i%2]
			var err error
			imgs[i], err = s.Image(e, key, cols[key], []string{"a"}, [][]int32{cols["a"]}, radix.Opts{Bits: 4}, i/2%2 == 1)
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	close(done)
	steps := map[string]int{}
	for _, tr := range traces {
		for _, ev := range tr.Events() {
			if ev.Cat == StepCat {
				steps[ev.Name]++
			}
		}
	}
	if steps["build-join-image"] != 2 || steps["build-image-column"] != 4 {
		t.Fatalf("steps %v, want 2 clusterings and 4 columns (a raw and encoded, per key column)", steps)
	}
	for i := 4; i < len(imgs); i++ {
		a, b := imgs[i].Cols[0], imgs[i-4].Cols[0]
		same := a.Enc != nil && a.Enc == b.Enc
		if i/2%2 == 0 {
			same = &a.Raw[0] == &b.Raw[0]
		}
		if &imgs[i].Hashes[0] != &imgs[i-4].Hashes[0] || !same {
			t.Fatalf("queries %d and %d got different images", i-4, i)
		}
	}
	var want int64
	for _, ki := range s.keys {
		want += ki.size()
	}
	if got := s.Bytes(); got != want {
		t.Fatalf("Bytes = %d, the images hold %d", got, want)
	}
}
