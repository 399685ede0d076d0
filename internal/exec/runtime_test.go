package exec

import (
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"radixdecluster/internal/radix"
)

// A lease must produce the same bytes as the serial operators on a
// runtime of any size — the scheduler changes who executes a morsel,
// never what it computes.
func TestRuntimePoolMatchesSerial(t *testing.T) {
	rt := NewRuntimeOpts(Options{Workers: 4})
	defer rt.Close()
	const n = MinParallelN * 2
	rng := rand.New(rand.NewSource(7))
	heads := make([]OID, n)
	vals := make([]int32, n)
	for i := range heads {
		heads[i] = OID(i)
		vals[i] = int32(rng.Intn(n / 2))
	}
	o := radix.Opts{Bits: 6}
	want, err := serialEngine(t).ClusterBUNs(heads, vals, o)
	if err != nil {
		t.Fatal(err)
	}
	p := NewEngine(rt, 4)
	defer p.Close()
	got, err := p.ClusterBUNs(heads, vals, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("runtime-backed ClusterBUNs differs from serial")
	}
}

// Admission control must bound the number of concurrently executing
// pipelines at MaxConcurrent, with the excess queueing FIFO — and all
// pipelines must still complete.
func TestRuntimeAdmissionBoundsPipelines(t *testing.T) {
	const bound = 2
	const pipelines = 7
	rt := NewRuntimeOpts(Options{Workers: 4, MaxConcurrent: bound})
	defer rt.Close()

	var inFlight, maxInFlight atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < pipelines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pl := NewPipeline(rt, 2)
			defer pl.Close()
			pl.Then(PhaseScan, "occupy", func(e *Engine) error {
				cur := inFlight.Add(1)
				for {
					m := maxInFlight.Load()
					if cur <= m || maxInFlight.CompareAndSwap(m, cur) {
						break
					}
				}
				// Hold the admission slot long enough that the other
				// pipelines pile up behind admission control.
				time.Sleep(5 * time.Millisecond)
				inFlight.Add(-1)
				return nil
			})
			if _, err := pl.Execute(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := maxInFlight.Load(); got > bound {
		t.Fatalf("%d pipelines executed concurrently, admission bound is %d", got, bound)
	}
	if rt.ActiveQueries() != 0 || rt.QueuedQueries() != 0 {
		t.Fatalf("runtime not drained: %d active, %d queued",
			rt.ActiveQueries(), rt.QueuedQueries())
	}
}

// A runtime pipeline's Timings must separate queueing from execution:
// the queue components exist, are non-negative, and stay within the
// phase wall-clocks they are contained in.
func TestRuntimeQueueTimings(t *testing.T) {
	rt := NewRuntimeOpts(Options{Workers: 2})
	defer rt.Close()
	pl := NewPipeline(rt, 2)
	defer pl.Close()
	ran := false
	pl.Then(PhaseJoin, "work", func(e *Engine) error {
		e.run(MinParallelN, 16, func(int, *Scratch) {})
		ran = true
		return nil
	})
	tm, err := pl.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("phase did not run")
	}
	if tm.Admission < 0 || tm.Queue() < 0 {
		t.Fatalf("negative queue components: admission=%v queue=%v", tm.Admission, tm.Queue())
	}
	if tm.QueueByKind[PhaseJoin] > tm.ByKind[PhaseJoin] {
		t.Fatalf("queue %v exceeds phase wall-clock %v",
			tm.QueueByKind[PhaseJoin], tm.ByKind[PhaseJoin])
	}
}

// Concurrent pipelines from many goroutines must all complete with
// correct per-job execution counts (every morsel exactly once).
func TestRuntimeConcurrentJobsExecuteAllMorsels(t *testing.T) {
	rt := NewRuntimeOpts(Options{Workers: 3, MaxConcurrent: 4})
	defer rt.Close()
	var wg sync.WaitGroup
	for q := 0; q < 8; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := NewEngine(rt, 2)
			defer p.Close()
			for round := 0; round < 5; round++ {
				const ntasks = 37
				var hits [ntasks]atomic.Int32
				p.submit(ntasks, func(task int, _ *Scratch) {
					hits[task].Add(1)
				})
				for i := range hits {
					if got := hits[i].Load(); got != 1 {
						t.Errorf("task %d executed %d times", i, got)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// The (cluster, chunk) prefix sum (radix.ChunkCursors), run as morsels
// on the runtime, must produce exactly the cursors and cluster starts of
// one walk over clusters outermost, chunks in input order, for any
// (cluster, chunk) shape.
func TestPrefixSumChunksParallelMatchesSerial(t *testing.T) {
	p := NewEngine(testRuntime(t), 4)
	defer p.Close()
	rng := rand.New(rand.NewSource(11))
	for _, shape := range []struct{ h, nch int }{
		{1, 1}, {8, 3}, {256, 64}, {1 << 10, 32}, {1 << 12, 40},
	} {
		h, nch := shape.h, shape.nch
		counts := make([]int, h*nch)
		for i := range counts {
			counts[i] = rng.Intn(5)
		}
		wantCur, wantOff := append([]int(nil), counts...), make([]int, h)
		pos := 0
		for c := 0; c < h; c++ {
			wantOff[c] = pos
			for k := 0; k < nch; k++ {
				wantCur[k*h+c], pos = pos, pos+wantCur[k*h+c]
			}
		}
		gotOff := make([]int, h)
		tasks := p.sched.stats().Tasks()
		radix.ChunkCursors(counts, h, nch, gotOff, 1, p.runner())
		if !reflect.DeepEqual(gotOff, wantOff) {
			t.Fatalf("h=%d nch=%d: offsets differ", h, nch)
		}
		if !reflect.DeepEqual(counts, wantCur) {
			t.Fatalf("h=%d nch=%d: cursors differ", h, nch)
		}
		if ran := p.sched.stats().Tasks() - tasks; (ran > 0) != (h*nch >= MinParallelN) {
			t.Fatalf("h=%d nch=%d: %d morsels, want the runtime exactly from MinParallelN items", h, nch, ran)
		}
	}
}

// A closed Engine has released its admission slot: running on it again
// must panic, as submitting to a closed Runtime does, instead of
// admitting a second lease that nobody would release.
func TestClosedEngineRunPanics(t *testing.T) {
	rt := testRuntime(t)
	for name, use := range map[string]func(e *Engine){
		"run":    func(e *Engine) { e.run(MinParallelN, 4, func(int, *Scratch) {}) },
		"submit": func(e *Engine) { e.submit(4, func(int, *Scratch) {}) },
		"attach": func(e *Engine) { e.attach() },
	} {
		e := NewEngine(rt, 2)
		e.run(MinParallelN, 4, func(int, *Scratch) {})
		if got := rt.ActiveQueries(); got != 1 {
			t.Fatalf("%s: %d active queries while the lease is held, want 1", name, got)
		}
		e.Close()
		func() {
			defer func() {
				if r := recover(); r != "exec: Run on a closed Engine" {
					t.Fatalf("%s on a closed Engine: recovered %v, want the closed-Engine panic", name, r)
				}
			}()
			use(e)
		}()
		if e.mem() != nil {
			t.Fatalf("%s: closed Engine handed out a buffer lease", name)
		}
		if got := rt.ActiveQueries(); got != 0 {
			t.Fatalf("%s on a closed Engine leaked an admission slot: %d active queries", name, got)
		}
	}
}
