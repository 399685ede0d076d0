package exec

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Deterministic wheel-logic test: a consumer attaching mid-pass starts
// at the wheel's current position and wraps, and every consumer sees
// every chunk exactly once. Serves are driven synchronously, so the
// interleaving is exact: c1 attaches at position 0, four serves run,
// c2 attaches mid-circle (position 4), and the remaining serves finish
// both windows.
func TestSharedScanLateAttachWrapsCircle(t *testing.T) {
	const n, nchunks = 100, 10
	src := make([]int32, n)
	key := ColumnScanKey(src, n)
	g := &scanRegistry{}

	// Pre-seed the registry with a finer chunking than the production
	// scanChunkItems would pick for so small an n; attach adopts it.
	sc := &sharedScan{key: key, chunks: Chunks(n, nchunks)}
	g.scans = map[ScanKey]*sharedScan{key: sc}

	var order1, order2 []Range
	got, c1, hit := g.attach(key, n, func(r Range) error { order1 = append(order1, r); return nil })
	if got != sc {
		t.Fatal("attach did not adopt the live pass")
	}
	if hit {
		t.Fatal("first consumer must not count as a shared hit")
	}
	for i := 0; i < 4; i++ {
		g.serve(sc)
	}
	if len(order1) != 4 {
		t.Fatalf("c1 served %d chunks after 4 serves, want 4", len(order1))
	}

	_, c2, hit := g.attach(key, n, func(r Range) error { order2 = append(order2, r); return nil })
	if !hit {
		t.Fatal("mid-pass attach must count as a shared hit")
	}
	for i := 0; i < nchunks; i++ {
		g.serve(sc)
	}
	// 14 serves total cover c1's window [0,10) and c2's [4,14).
	select {
	case <-c1.done:
	default:
		t.Fatal("c1 not done after its window was served")
	}
	select {
	case <-c2.done:
	default:
		t.Fatal("c2 not done after its window was served")
	}

	full := Chunks(n, nchunks)
	if !reflect.DeepEqual(order1, full) {
		t.Fatalf("c1 chunk order %v, want the full circle %v", order1, full)
	}
	// c2 starts mid-circle at chunk 4 and wraps to 0..3.
	wrapped := append(append([]Range{}, full[4:]...), full[:4]...)
	if !reflect.DeepEqual(order2, wrapped) {
		t.Fatalf("late attacher chunk order %v, want mid-circle wrap %v", order2, wrapped)
	}
	if g.hits.Load() != 1 {
		t.Fatalf("registry hits %d, want 1", g.hits.Load())
	}
	if len(g.scans) != 0 {
		t.Fatalf("registry still holds %d scans after both consumers finished", len(g.scans))
	}
	// Spare tokens after the pass completed must no-op, not wrap again.
	g.serve(sc)
	if len(order1) != nchunks || len(order2) != nchunks {
		t.Fatal("serve after completion re-ran a consumer body")
	}
}

// End-to-end on a live runtime: a second pipeline attaches while the
// first pipeline's scan is provably in flight (its bodies gate on the
// registry's hit counter), so exactly one shared hit is recorded and
// both consumers' outputs are byte-identical to an unshared sweep.
func TestSharedScanRuntimeTwoConsumersByteIdentical(t *testing.T) {
	rt := NewRuntimeOpts(Options{Workers: 2, MaxConcurrent: 4, ShareScans: true})
	defer rt.Close()

	const n = 2 * MinParallelN
	src := make([]int32, n)
	for i := range src {
		src[i] = int32(i)
	}
	key := ColumnScanKey(src, n)
	want := make([]int32, n)
	for i := range want {
		want[i] = src[i] * 3
	}

	e1 := NewEngine(rt, 2)
	e2 := NewEngine(rt, 2)
	defer e1.Close()
	defer e2.Close()

	out1 := make([]int32, n)
	out2 := make([]int32, n)
	ready := make(chan struct{})
	var readyOnce sync.Once
	var wg sync.WaitGroup
	wg.Add(2)
	var err1, err2 error
	go func() {
		defer wg.Done()
		err1 = e1.SharedRanges(key, n, func(r Range) error {
			// Release the second consumer, then hold this serve until it
			// has attached — the scan is guaranteed still in progress.
			readyOnce.Do(func() { close(ready) })
			deadline := time.Now().Add(10 * time.Second)
			for rt.SharedScanHits() == 0 {
				if time.Now().After(deadline) {
					t.Error("second consumer never attached")
					break
				}
				time.Sleep(time.Millisecond)
			}
			for i := r.Lo; i < r.Hi; i++ {
				out1[i] = src[i] * 3
			}
			return nil
		})
	}()
	go func() {
		defer wg.Done()
		<-ready
		err2 = e2.SharedRanges(key, n, func(r Range) error {
			for i := r.Lo; i < r.Hi; i++ {
				out2[i] = src[i] * 3
			}
			return nil
		})
	}()
	wg.Wait()
	if err1 != nil || err2 != nil {
		t.Fatalf("shared scans errored: %v / %v", err1, err2)
	}
	if !reflect.DeepEqual(out1, want) {
		t.Fatal("first consumer's output differs from the serial sweep")
	}
	if !reflect.DeepEqual(out2, want) {
		t.Fatal("late-attaching consumer's output differs from the serial sweep")
	}
	if got := rt.SharedScanHits(); got != 1 {
		t.Fatalf("runtime recorded %d shared hits, want 1", got)
	}
	if got := e1.sharedHits.Load() + e2.sharedHits.Load(); got != 1 {
		t.Fatalf("engines recorded %d shared hits, want 1", got)
	}
}

// Hammer the registry from many concurrent consumers over the same and
// different keys: every consumer must see each of its items exactly
// once (run under -race in CI).
func TestSharedScanConcurrentConsumersCoverAllItems(t *testing.T) {
	rt := NewRuntimeOpts(Options{Workers: 3, MaxConcurrent: 8, ShareScans: true})
	defer rt.Close()

	const n = MinParallelN
	srcA := make([]int32, n)
	srcB := make([]int32, n)
	keyA := ColumnScanKey(srcA, n)
	keyB := ColumnScanKey(srcB, n)

	const consumers = 12
	var wg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			key := keyA
			if c%3 == 0 {
				key = keyB
			}
			e := NewEngine(rt, 2)
			defer e.Close()
			seen := make([]atomic.Int32, n)
			err := e.SharedRanges(key, n, func(r Range) error {
				for i := r.Lo; i < r.Hi; i++ {
					seen[i].Add(1)
				}
				return nil
			})
			if err != nil {
				t.Errorf("consumer %d: %v", c, err)
				return
			}
			for i := range seen {
				if got := seen[i].Load(); got != 1 {
					t.Errorf("consumer %d: item %d served %d times", c, i, got)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	rt.scanReg.mu.Lock()
	live := len(rt.scanReg.scans)
	rt.scanReg.mu.Unlock()
	if live != 0 {
		t.Fatalf("%d scans still registered after all consumers finished", live)
	}
}

// With sharing disabled the declared key must be ignored: SharedRanges
// falls back to ForRanges and the registry stays empty.
func TestSharedRangesDisabledFallsBackToForRanges(t *testing.T) {
	rt := NewRuntimeOpts(Options{Workers: 2, MaxConcurrent: 4, ShareScans: false})
	defer rt.Close()
	const n = MinParallelN
	src := make([]int32, n)
	e := NewEngine(rt, 2)
	defer e.Close()
	out := make([]int32, n)
	if err := e.SharedRanges(ColumnScanKey(src, n), n, func(r Range) error {
		for i := r.Lo; i < r.Hi; i++ {
			out[i] = 1
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != 1 {
			t.Fatalf("item %d not covered", i)
		}
	}
	if rt.SharedScanHits() != 0 {
		t.Fatal("hits recorded with sharing disabled")
	}
	rt.scanReg.mu.Lock()
	live := len(rt.scanReg.scans)
	rt.scanReg.mu.Unlock()
	if live != 0 {
		t.Fatal("registry populated with sharing disabled")
	}
}
