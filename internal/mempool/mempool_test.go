package mempool

import (
	"sync"
	"testing"
)

func TestClassFor(t *testing.T) {
	cases := []struct{ n, class int }{
		{1, 0}, {64, 0}, {65, 1}, {128, 1}, {129, 2},
		{1 << 26, maxClassShift - minClassShift},
		{1<<26 + 1, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.class {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.class)
		}
	}
}

func TestLeaseRecyclesAcrossQueries(t *testing.T) {
	p := New(0)
	l1 := p.NewLease()
	b := Slice[uint32](l1, 1000)
	for i := range b {
		b[i] = uint32(i)
	}
	l1.Release()
	if st := p.Stats(); st.Misses == 0 || st.Hits != 0 {
		t.Fatalf("first query should miss: %v", st)
	}
	l2 := p.NewLease()
	_ = Slice[uint32](l2, 1000)
	if st := p.Stats(); st.Hits != 1 {
		t.Fatalf("second query should hit the recycled buffer: %v", st)
	}
	ls := l2.Stats()
	if ls.Reused == 0 || ls.Acquired != ls.Reused {
		t.Fatalf("lease accounting should show full reuse: %+v", ls)
	}
	l2.Release()
	if st := p.Stats(); st.Leases != 0 {
		t.Fatalf("leases leaked: %v", st)
	}
}

func TestLeaseAccounting(t *testing.T) {
	p := New(0)
	l := p.NewLease()
	_ = Slice[uint64](l, 100) // 800B -> 1024B class
	_ = Slice[byte](l, 50)    // -> 64B class
	st := l.Stats()
	if st.Acquired != 1024+64 {
		t.Errorf("Acquired = %d, want %d", st.Acquired, 1024+64)
	}
	if st.Reused != 0 {
		t.Errorf("Reused = %d on a cold pool, want 0", st.Reused)
	}
	if st.HighWater != st.Acquired {
		t.Errorf("HighWater = %d, want %d", st.HighWater, st.Acquired)
	}
	l.Release()
	// A second lease over the now-warm pool reuses what it acquires.
	l2 := p.NewLease()
	_ = Slice[uint64](l2, 100)
	if st := l2.Stats(); st.Acquired != 1024 || st.Reused != 1024 {
		t.Errorf("warm lease: acquired=%d reused=%d, want 1024/1024", st.Acquired, st.Reused)
	}
	l2.Release()
	// HighWater survives release (it is reported after pipeline end).
	if got := l.Stats().HighWater; got != 1024+64 {
		t.Errorf("post-release HighWater = %d", got)
	}
}

func TestLeaseDoubleReleasePanics(t *testing.T) {
	p := New(0)
	l := p.NewLease()
	_ = Slice[int32](l, 16)
	l.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release should panic")
		}
	}()
	l.Release()
}

func TestLeaseAcquireAfterReleasePanics(t *testing.T) {
	p := New(0)
	l := p.NewLease()
	l.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("acquisition on a released lease should panic")
		}
	}()
	_ = Slice[int32](l, 16)
}

func TestLeakDetection(t *testing.T) {
	p := New(0)
	l := p.NewLease()
	_ = l
	if p.Stats().Leases != 1 {
		t.Fatal("live lease not counted")
	}
	l.Release()
	if p.Stats().Leases != 0 {
		t.Fatal("released lease still counted")
	}
}

func TestTrim(t *testing.T) {
	p := New(128) // hold at most 128 bytes
	l := p.NewLease()
	_ = Slice[byte](l, 128) // one 128B buffer
	_ = Slice[byte](l, 128) // another
	l.Release()
	st := p.Stats()
	if st.Trims != 1 {
		t.Fatalf("expected 1 trim, got %v", st)
	}
	if st.HeldBytes != 128 {
		t.Fatalf("held = %d, want 128", st.HeldBytes)
	}
}

func TestSliceCapAppendStaysDisjoint(t *testing.T) {
	p := New(0)
	l := p.NewLease()
	defer l.Release()
	s := SliceCap[uint32](l, 0, 4)
	if cap(s) != 4 {
		t.Fatalf("cap = %d, want 4", cap(s))
	}
	// Appending past the capacity must reallocate, never run into a
	// neighbouring checkout of the same backing class.
	s = append(s, 1, 2, 3, 4, 5)
	if len(s) != 5 {
		t.Fatal("append lost elements")
	}
}

func TestBeyondClassFallsThrough(t *testing.T) {
	p := New(0)
	l := p.NewLease()
	huge := Slice[byte](l, (1<<26)+1)
	if len(huge) != (1<<26)+1 {
		t.Fatal("beyond-class ask wrong length")
	}
	l.Release()
	if st := p.Stats(); st.HeldBytes != 0 {
		t.Fatalf("beyond-class buffer must not enter a kit: %v", st)
	}
}

func TestNilLeaseFallsBackToGC(t *testing.T) {
	s := Slice[uint32](nil, 10)
	if len(s) != 10 {
		t.Fatal("nil lease fallback broken")
	}
}

// A released lease's buffers stay together as a kit the next lease
// adopts whole. Two leases of one shape that overlap at all — here
// never at their peaks — leave two kits, and from then on no
// interleaving of two such leases misses: the arena's size follows how
// many leases ran at once, not how their demands happened to align (a
// shared freelist per class would hold 8 buffers here and miss 8 more
// the first time both leases peak together).
func TestKitsMakeWarmUpIndependentOfAlignment(t *testing.T) {
	p := New(0)
	shape := func(l *Lease, from, to int) {
		for i := from; i < to; i++ {
			_ = Slice[int32](l, 1000+i) // 4096B class each
		}
	}
	// Overlap only at the very start: a opens, b opens, a runs to its
	// end and closes before b acquires anything.
	a, b := p.NewLease(), p.NewLease()
	shape(a, 0, 8)
	a.Release()
	shape(b, 0, 8)
	b.Release()
	if st := p.Stats(); st.Misses != 16 || st.HeldBytes != 16*4096 {
		t.Fatalf("two cold leases of 8 buffers: %v", st)
	}
	// Now both at their peaks at once: a joint demand never seen
	// before.
	a, b = p.NewLease(), p.NewLease()
	shape(a, 0, 4)
	shape(b, 0, 8)
	shape(a, 4, 8)
	if st := p.Stats(); st.Misses != 16 || st.HeldBytes != 0 {
		t.Fatalf("warm leases of the same shape must not miss: %v", st)
	}
	if as, bs := a.Stats(), b.Stats(); as.Reused != as.Acquired || bs.Reused != bs.Acquired {
		t.Fatalf("warm leases: %+v %+v", as, bs)
	}
	a.Release()
	b.Release()
	// A lease that outgrows its kit allocates the rest and leaves the
	// bigger kit behind.
	c := p.NewLease()
	shape(c, 0, 10)
	c.Release()
	if st := p.Stats(); st.Misses != 18 || st.HeldBytes != 18*4096 || st.Leases != 0 {
		t.Fatalf("outgrown kit: %v", st)
	}
}

func TestConcurrentLeaseAcquire(t *testing.T) {
	p := New(0)
	l := p.NewLease()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s := Slice[uint32](l, 256)
				s[0] = 1
			}
		}()
	}
	wg.Wait()
	l.Release()
	if st := p.Stats(); st.Leases != 0 {
		t.Fatalf("leak after concurrent acquire: %v", st)
	}
}

// Own'd buffers count in the lease's accounting but are off its ledger:
// Release leaves them alone, Recycle returns the exact class buffer to
// the kit it came from whatever the holder re-sliced, and an unreturned
// one leaks nothing the pool tracks.
func TestOwnRecycle(t *testing.T) {
	p := New(0)
	l := p.NewLease()
	home := l.Kit()
	kept := Own[int32](l, 1000) // 4000B -> 4096B class
	_ = Slice[int32](l, 1000)
	if len(kept) != 1000 || cap(kept) != 1024 {
		t.Fatalf("Own: len=%d cap=%d, want 1000/1024", len(kept), cap(kept))
	}
	if st := l.Stats(); st.Acquired != 2*4096 || st.HighWater != 2*4096 {
		t.Fatalf("owned bytes must count in the lease's accounting: %+v", st)
	}
	for i := range kept {
		kept[i] = int32(i)
	}
	l.Release()
	if st := p.Stats(); st.HeldBytes != 4096 || st.Leases != 0 {
		t.Fatalf("Release must return the ledgered buffer only: %v", st)
	}
	// The owned buffer is untouched by whoever draws the ledgered one.
	l2 := p.NewLease()
	if l2.Kit() != home {
		t.Fatal("the only idle kit was not adopted")
	}
	other := Slice[int32](l2, 1000)
	for i := range other {
		other[i] = -1
	}
	for i, v := range kept {
		if v != int32(i) {
			t.Fatalf("owned buffer clobbered at %d after its lease closed", i)
		}
	}
	l2.Release()

	// A re-sliced view is not the whole buffer and is left to the GC;
	// the original slice goes back whole, and idempotence is the
	// holder's job (a nil slice is a no-op).
	Recycle(home, kept[10:500])
	if st := p.Stats(); st.HeldBytes != 4096 {
		t.Fatalf("partial slice must not enter the kit: %v", st)
	}
	Recycle(home, kept)
	Recycle[int32](home, nil)
	Recycle[int32](nil, kept[:0])
	if st := p.Stats(); st.HeldBytes != 2*4096 {
		t.Fatalf("owned buffer did not come back whole: %v", st)
	}
	l3 := p.NewLease()
	again := Own[int32](l3, 1024)
	if st := l3.Stats(); st.Reused != st.Acquired {
		t.Fatalf("recycled owned buffer not reused: %+v", st)
	}
	l3.Release()
	_ = again // never recycled: garbage, and no lease is left open
	if st := p.Stats(); st.Leases != 0 {
		t.Fatalf("leases leaked: %v", st)
	}

	// Pooling off: a nil lease is a plain make, a nil kit a no-op.
	plain := Own[int32](nil, 10)
	if len(plain) != 10 || cap(plain) != 10 {
		t.Fatalf("nil-lease Own: len=%d cap=%d", len(plain), cap(plain))
	}
	Recycle[int32](nil, plain)
}

// A lease prefers a kit that has its owned buffers back: a query that
// starts while another's result is still out must not adopt that
// query's kit and find it short.
func TestWholeKitAdoptedFirst(t *testing.T) {
	p := New(0)
	query := func() (*Kit, []int32) {
		l := p.NewLease()
		defer l.Release()
		_ = Slice[int32](l, 1000)
		return l.Kit(), Own[int32](l, 1000)
	}
	// Two kits come to exist and see one full cycle each, so each knows
	// what having everything back looks like.
	a, b := p.NewLease(), p.NewLease()
	for _, l := range []*Lease{a, b} {
		_ = Slice[int32](l, 1000)
		res := Own[int32](l, 1000)
		l.Release()
		Recycle(l.Kit(), res)
	}
	before := p.Stats().Misses
	k1, res1 := query()
	k2, res2 := query() // res1 is still out: k1 is short, the other kit is not
	if k2 == k1 {
		t.Fatal("adopted the kit whose owned buffer is still out")
	}
	Recycle(k1, res1)
	Recycle(k2, res2)
	k3, res3 := query() // both whole again: most recently released first
	if k3 != k2 {
		t.Fatal("whole kits are adopted most recently released first")
	}
	Recycle(k3, res3)
	if d := p.Stats().Misses - before; d != 0 {
		t.Fatalf("%d misses after both kits were filled", d)
	}
}

// The retention limit is not sticky: after a burst has parked big kits
// right up to it, a small query's returning buffers evict the coldest
// idle kit instead of being dropped themselves, so from its second round
// on the small query finds its kit with everything in it. Before the
// eviction existed every round missed and trimmed: Hits stayed 0.
func TestLimitEvictsColdestKitNotTheReturn(t *testing.T) {
	const big, kits = 256 << 10, 4
	p := New(kits * big)
	burst := make([]*Lease, kits)
	for i := range burst {
		burst[i] = p.NewLease()
		_ = burst[i].Bytes(big)
	}
	for _, l := range burst {
		l.Release()
	}
	if st := p.Stats(); st.HeldBytes != kits*big || st.Trims != 0 {
		t.Fatalf("after the burst: %v, want %d bytes held in %d kits and no trim", st, kits*big, kits)
	}

	const rounds = 100
	before := p.Stats()
	for range rounds {
		l := p.NewLease()
		_ = Slice[int32](l, 1000)
		_ = Slice[int32](l, 100)
		l.Release()
	}
	st := p.Stats()
	// Round 1 allocates its two buffers and its release evicts one cold
	// kit (one big buffer); every later round is served from the kit.
	if hits, misses := st.Hits-before.Hits, st.Misses-before.Misses; hits != 2*(rounds-1) || misses != 2 {
		t.Fatalf("%d small rounds: %d hits, %d misses, want %d and 2", rounds, hits, misses, 2*(rounds-1))
	}
	if trims := st.Trims - before.Trims; trims != 1 {
		t.Fatalf("%d buffers trimmed, want the coldest kit's one", trims)
	}
	if st.HeldBytes > kits*big {
		t.Fatalf("%d bytes held, over the %d limit", st.HeldBytes, kits*big)
	}
}

// An owned buffer that comes home to a kit the pool has evicted is
// dropped: the kit is off the list for good, and bytes parked in it
// would count against the limit where no lease could ever find them.
func TestRecycleIntoEvictedKitDrops(t *testing.T) {
	const big = 64 << 10
	p := New(big)
	l, a, b := p.NewLease(), p.NewLease(), p.NewLease()
	home, res := l.Kit(), Own[byte](l, big)
	l.Release() // home is idle and the coldest kit; its one buffer is out
	_ = a.Bytes(big)
	_ = b.Bytes(big)
	a.Release() // fills the arena to its limit
	b.Release() // needs room: home goes, then a's kit
	if st := p.Stats(); st.HeldBytes != big || st.Trims != 1 {
		t.Fatalf("after the third return: %v, want one kit of %d bytes held and one buffer trimmed", st, big)
	}
	before := p.Stats()
	Recycle(home, res)
	if st := p.Stats(); st.HeldBytes != before.HeldBytes || st.Trims != before.Trims+1 {
		t.Fatalf("recycle into an evicted kit: %v -> %v, want the buffer trimmed and nothing else moved", before, st)
	}
	if l := p.NewLease(); l.Kit() != b.Kit() {
		t.Fatal("the kit that was kept is not the one adopted next")
	}
}

// Return takes a ledgered buffer off the ledger before Release: the
// lease stops holding it, the next acquisition of its class reuses it,
// and Release does not hand it back a second time. Anything that does
// not start a ledgered buffer of the lease is left alone.
func TestReturnHandsBackEarly(t *testing.T) {
	p := New(0)
	l := p.NewLease()
	a := Slice[int32](l, 1000) // 4096B class
	b := Slice[int32](l, 1000)
	Return(l, a[:10])
	if st := l.Stats(); st.HighWater != 2*4096 {
		t.Fatalf("HighWater = %d after a return, want the peak %d", st.HighWater, 2*4096)
	}
	if st := p.Stats(); st.HeldBytes != 4096 {
		t.Fatalf("returned buffer not idle in the kit: %v", st)
	}
	c := Slice[int32](l, 1000)
	if &c[0] != &a[0] || p.Stats().Hits != 1 {
		t.Fatalf("the next acquisition of the class did not reuse the returned buffer: %v", p.Stats())
	}
	Return(l, a[1:], b[:0:0], make([]int32, 1000), Own[int32](l, 1000))
	Return[int32](nil, b)
	if st := p.Stats(); st.HeldBytes != 0 {
		t.Fatalf("a slice not starting a ledgered buffer was taken back: %v", st)
	}
	l.Release()
	if st := p.Stats(); st.HeldBytes != 2*4096 || st.Leases != 0 {
		t.Fatalf("Release must hand back b and c once each: %v", st)
	}
	Return(l, b) // after Release: nothing on the ledger
	if st := p.Stats(); st.HeldBytes != 2*4096 {
		t.Fatalf("a return after Release moved bytes: %v", st)
	}
}

// offHeapTransients reports whether ledgered buffers from offHeapClass
// up are mappings in this build: on unix systems, outside race builds.
func offHeapTransients() bool {
	b := mapBytes(classBytes(offHeapClass))
	return b != nil && unmapBytes(b) && !raceBuild
}

// Own's buffers are Go memory whatever the kit holds: a fresh one is no
// mapping, and a ledgered mapping idle in the kit never serves one.
func TestOwnIsNeverOffHeap(t *testing.T) {
	p := New(0)
	l := p.NewLease()
	owned := Own[int32](l, 1<<18) // 1 MiB class
	led := Slice[int32](l, 1<<18)
	l.Release()
	if unmapBytes(backing(owned)) {
		t.Fatal("Own returned a mapping")
	}
	l = p.NewLease()
	again := Own[int32](l, 1<<18)
	if &again[0] == &led[0] || unmapBytes(backing(again)) {
		t.Fatal("Own was served the idle ledgered buffer")
	}
	if st := l.Stats(); st.Reused != 0 {
		t.Fatalf("Own reused a ledgered buffer: %+v", st)
	}
	l.Release()
}

// Ledgered mappings leaving the arena go back to the system: a return
// the limit has no room for, and the idle buffers of an evicted kit.
func TestOffHeapTrimsAndEvictionsUnmap(t *testing.T) {
	const big = 256 << 10
	want := int64(0)
	if offHeapTransients() {
		want = 1
	}
	p := New(big)
	l := p.NewLease()
	_ = l.Bytes(big)
	_ = l.Bytes(big)
	l.Release() // one fits the limit, the other is trimmed
	if st := p.Stats(); st.Trims != 1 || p.unmapped.Load() != want {
		t.Fatalf("trim: %v, %d unmapped, want 1 trim and %d unmapped", st, p.unmapped.Load(), want)
	}
	// A second kit's return needs the room: the first kit is evicted.
	l = p.NewLease()
	other := p.NewLease()
	_ = other.Bytes(big)
	l.Release() // adopted kit back in the list, still holding its buffer
	other.Release()
	if st := p.Stats(); st.Trims != 2 || st.HeldBytes != big || p.unmapped.Load() != 2*want {
		t.Fatalf("eviction: %v, %d unmapped, want 2 trims and %d unmapped", st, p.unmapped.Load(), 2*want)
	}
}

// Race builds poison what Return and Release hand back, so a phase that
// reads an intermediate after returning it reads the pattern, not the
// values it expects.
func TestReturnedTransientsArePoisoned(t *testing.T) {
	if !raceBuild {
		t.Skip("only race builds poison returned buffers")
	}
	const pattern = int32(-0x5a5a5a5b) // 0xA5A5A5A5
	p := New(0)
	l := p.NewLease()
	early, late := Slice[int32](l, 1<<14), Slice[int32](l, 100)
	for i := range early {
		early[i] = int32(i)
	}
	Return(l, early)
	l.Release()
	for _, s := range [][]int32{early, late} {
		for i, v := range s {
			if v != pattern {
				t.Fatalf("read after return at %d: %#x, want the pattern", i, uint32(v))
			}
		}
	}
}
