// Package mempool is the process-wide execution-memory arena: a
// size-classed recycling pool for the transient buffers the executor
// burns through on every query — radix-cluster scatter targets,
// per-partition match lists, prefix-sum histograms, decode scratch.
//
// Why it exists: the paper's whole argument is that memory behaviour,
// not instruction count, decides projection cost. Under concurrent
// load the Go GC becomes a hidden extra query — allocation-heavy
// steady state means mark/sweep competes for exactly the memory
// bandwidth the cost model budgets to the real queries, and a fresh
// buffer is zeroed memory traffic no algorithm asked for. The arena
// makes the steady state of a warmed-up executor — a runtime's queries
// and the serial paper engine's alike — near-allocation-free: every
// transient comes from a recycled buffer and goes back after its last
// reader or at query end.
//
// Three types:
//
//   - Kit: a set of idle buffers in power-of-two size classes (64 B …
//     64 MB) that circulates as a unit — what one query needs, kept
//     together. Every buffer the arena knows belongs to exactly one kit.
//   - Lease: the per-query checkout ledger. Opening one adopts an idle
//     kit (or starts an empty one); operators acquire every intra-query
//     transient through it, from the kit, allocating what the kit
//     lacks; Return hands one back to the kit as soon as its last
//     reader is done, and Release — called exactly once when the
//     pipeline completes, success or error — puts every ledgered buffer
//     still out back into the kit and the kit back with the Pool. The
//     lease also keeps the per-query accounting (bytes acquired, bytes
//     served by recycled buffers, peak bytes held) that surfaces as
//     Timing.Mem.
//   - Pool: the idle kits, the lifetime counters and the high-water
//     limit: a buffer whose return would push the idle bytes past it
//     first evicts the coldest idle kits — so a burst of big queries
//     does not leave an arena that can retain nothing for the small
//     ones after it — and is itself dropped only when no idle kit is
//     left to evict (either way the dropped buffers are trims). The
//     limit bounds the idle bytes of every kit in the process.
//
// Why kits and not one shared freelist per class: queries of one shape
// ask for the same buffers, so a lease that adopts a kit such a query
// left never allocates, whatever else is running. The arena therefore
// stops growing once as many kits exist as queries ever ran at once —
// after the first overlap. A shared freelist grows to the largest
// JOINT demand instead, which two queries only reach when they happen
// to peak together: it kept allocating, 4 MB at a time, minutes into a
// run. An acquisition also takes its kit's lock, not a global one.
//
// Two buffer kinds, kept on separate free lists of each kit because
// they live in different memory:
//
//   - Ledgered buffers (Slice, SliceCap, Bytes) are a query's
//     transients — scatter targets, join-indexes, clustered columns. The
//     lease's ledger takes them back at Release, or one at a time before
//     it (Return) once the phase that reads one last is done, so a kit
//     holds a pipeline's peak live set rather than the sum of its
//     intermediates. From the 64 KiB class up they are anonymous
//     mappings outside the Go heap (mmap on unix systems, unmapped when
//     a buffer is trimmed or its kit evicted; a make elsewhere): the GC
//     pacer counts idle heap bytes as live, so a kit held on the heap
//     costs about twice its size in RSS — measured, 24 MiB of Go-heap
//     kit raised paper mode's RSS by 28 MB. Race builds keep them
//     on the Go heap, because the race detector ignores every address
//     outside it, and fill every ledgered buffer handed back with a
//     fixed pattern, so a phase reading an intermediate after returning
//     it reads garbage the equivalence tests catch.
//   - Owned buffers (Own) are a query's result arrays, which the caller
//     reads after the pipeline is gone. Own draws them through the
//     lease's accounting but keeps them off its ledger; they remember
//     nothing, so the holder keeps the kit they came from (Lease.Kit)
//     and hands them back with Recycle whenever it is done. They are
//     always Go memory: a result that is never recycled is ordinary
//     garbage, as the result's Release contract promises. A kit that is
//     not whole — owned buffers still out — is adopted last, so a query
//     whose predecessor's result was released finds a kit with
//     everything in it.
//
// Buffers are handed out DIRTY: a recycled buffer holds whatever the
// previous query wrote. Callers must either fully overwrite
// (scatter targets, prefix sums — every slot written by construction)
// or zero explicitly (histograms). The generic Slice helpers
// reinterpret the byte backing as element slices via unsafe; they are
// only sound for pointer-free element types (ints, floats, plain
// structs of them) — a pointer stored into byte-backed memory is
// invisible to the GC. Nothing in this package hands out
// pointer-typed slices.
package mempool

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"
)

const (
	// minClassShift..maxClassShift bound the size classes: 64 B keeps
	// tiny asks from fragmenting the ledger, 64 MB covers a 16M-tuple
	// uint32 column — the paper's largest relation — in one buffer.
	minClassShift = 6
	maxClassShift = 26
	numClasses    = maxClassShift - minClassShift + 1
	// offHeapClass is the smallest class a ledgered buffer is mapped
	// outside the Go heap in (64 KiB): below it a mapping's page
	// granularity and system call cost outweigh what the GC would charge.
	offHeapClass = 16 - minClassShift

	// DefaultLimit is the default high-water bound on bytes the Pool
	// holds idle in kits (not bytes checked out): 256 MB keeps a few
	// concurrent queries' steady-state footprint resident without
	// pinning an unbounded worst case.
	DefaultLimit = 256 << 20
)

// classFor returns the size class index for an n-byte ask, or -1 when
// n exceeds the largest class (the caller falls through to the GC).
func classFor(n int) int {
	if n <= 1<<minClassShift {
		return 0
	}
	c := bits.Len(uint(n-1)) - minClassShift
	if c >= numClasses {
		return -1
	}
	return c
}

// classBytes is the size of class c's buffers.
func classBytes(c int) int { return 1 << (uint(c) + minClassShift) }

// Stats is a snapshot of the arena's lifetime counters.
type Stats struct {
	// Hits / Misses count buffer acquisitions served from a kit vs.
	// freshly allocated.
	Hits, Misses int64
	// Trims counts buffers dropped — to the GC, or unmapped when they
	// are off-heap transients — to keep the held bytes within the
	// limit: those of evicted idle kits, and returning ones no eviction
	// could make room for.
	Trims int64
	// HeldBytes is the bytes currently sitting idle in kits, ready for
	// reuse.
	HeldBytes int64
	// Leases is the number of live (unreleased) leases — nonzero at
	// quiescence means a query leaked its lease.
	Leases int64
}

// HitRate returns Hits / (Hits + Misses), 0 before any acquisition.
func (s Stats) HitRate() float64 {
	if t := s.Hits + s.Misses; t > 0 {
		return float64(s.Hits) / float64(t)
	}
	return 0
}

// Pool is the arena: the idle kits, counters and retention limit. The
// zero value is not ready; use New.
type Pool struct {
	mu   sync.Mutex
	kits []*Kit // idle, most recently released last (guarded by mu)

	held   atomic.Int64 // idle bytes over all kits, adopted ones included
	limit  atomic.Int64
	hits   atomic.Int64
	misses atomic.Int64
	trims  atomic.Int64
	leases atomic.Int64
	// unmapped counts off-heap buffers given back to the system (trims
	// and evictions of mapped ledgered buffers).
	unmapped atomic.Int64
}

// New creates a Pool whose kits trim above limit idle bytes
// (limit <= 0 selects DefaultLimit).
func New(limit int64) *Pool {
	p := &Pool{}
	p.SetLimit(limit)
	return p
}

// SetLimit replaces the high-water trim bound (<= 0 restores
// DefaultLimit). Already-held buffers stay until returns evict them.
func (p *Pool) SetLimit(limit int64) {
	if limit <= 0 {
		limit = DefaultLimit
	}
	p.limit.Store(limit)
}

// Stats snapshots the lifetime counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Hits: p.hits.Load(), Misses: p.misses.Load(),
		Trims: p.trims.Load(), HeldBytes: p.held.Load(),
		Leases: p.leases.Load(),
	}
}

// Kit is a set of buffers that circulates as a unit: adopted whole by a
// lease, returned whole at its release, and the home that owned buffers
// drawn from it come back to.
type Kit struct {
	p  *Pool
	mu sync.Mutex
	// free holds the idle ledgered buffers, owned the idle owned ones,
	// per size class (see the package comment for why they are apart).
	free, owned [numClasses][][]byte
	// idle is the bytes in both lists, peak the most it has ever been: a
	// kit holding its peak has everything back, owned buffers included.
	idle, peak int64
	// evicted marks a kit the pool dropped to get back under its limit:
	// no lease will adopt it again, so an owned buffer that still comes
	// home to it goes to the GC. Set under mu.
	evicted atomic.Bool
}

// whole reports whether every buffer the kit has ever held idle is
// back in it.
func (k *Kit) whole() bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.idle == k.peak
}

// Pool returns the arena the kit belongs to.
func (k *Kit) Pool() *Pool { return k.p }

// list returns the kit's free list of class c for the buffer kind.
func (k *Kit) list(c int, owned bool) *[][]byte {
	if owned {
		return &k.owned[c]
	}
	return &k.free[c]
}

// take returns a dirty buffer of at least n bytes (len == cap == class
// size) and whether it was recycled; what the kit lacks — and anything
// beyond the largest class — is a fresh allocation: Go memory for an
// owned buffer, an off-heap mapping for a ledgered one of offHeapClass
// or more (newTransient).
func (k *Kit) take(n int, owned bool) (buf []byte, reused bool) {
	c := classFor(n)
	if c < 0 {
		k.p.misses.Add(1)
		return make([]byte, n), false
	}
	k.mu.Lock()
	if l := k.list(c, owned); len(*l) > 0 {
		last := len(*l) - 1
		buf = (*l)[last]
		(*l)[last] = nil
		*l = (*l)[:last]
		k.idle -= int64(cap(buf))
	}
	k.mu.Unlock()
	if buf != nil {
		k.p.held.Add(-int64(cap(buf)))
		k.p.hits.Add(1)
		return buf, true
	}
	k.p.misses.Add(1)
	if owned {
		return make([]byte, classBytes(c)), false
	}
	return newTransient(c), false
}

// newTransient allocates a ledgered buffer of class c: mapped outside
// the Go heap from offHeapClass up (except in race builds), else — and
// when the system refuses the mapping — a make.
func newTransient(c int) []byte {
	if c >= offHeapClass && !raceBuild {
		if b := mapBytes(classBytes(c)); b != nil {
			return b
		}
	}
	return make([]byte, classBytes(c))
}

// put adds an idle buffer to the kit, dropping it instead (a trim) when
// the pool cannot make room for it under the limit or the kit has been
// evicted, or when it is no whole class member (beyond-class or
// externally grown: the GC's). A ledgered buffer is poisoned first in
// race builds, and unmapped when dropped.
func (k *Kit) put(buf []byte, owned bool) {
	c := classFor(cap(buf))
	if c < 0 || cap(buf) != classBytes(c) {
		return
	}
	buf = buf[:cap(buf)]
	if raceBuild && !owned {
		poison(buf)
	}
	fits := !k.evicted.Load() && k.p.makeRoom(int64(cap(buf)), k)
	k.mu.Lock()
	if !fits || k.evicted.Load() {
		k.mu.Unlock()
		k.p.trims.Add(1)
		if !owned {
			k.p.drop(buf)
		}
		return
	}
	l := k.list(c, owned)
	*l = append(*l, buf)
	k.idle += int64(cap(buf))
	k.peak = max(k.peak, k.idle)
	k.mu.Unlock()
	k.p.held.Add(int64(cap(buf)))
}

// poisonByte is the pattern race builds fill returned ledgered buffers
// with: as an int32 or oid it is far out of any column's range.
const poisonByte = 0xA5

// poison fills b with poisonByte.
func poison(b []byte) {
	for i := range b {
		b[i] = poisonByte
	}
}

// drop gives a ledgered buffer leaving the arena back to the system
// when it is a mapping; a Go-heap one is the GC's.
func (p *Pool) drop(b []byte) {
	if cap(b) >= classBytes(offHeapClass) && unmapBytes(b) {
		p.unmapped.Add(1)
	}
}

// makeRoom reports whether n more idle bytes fit under the limit, first
// evicting the coldest idle kits — the front of p.kits; never keep, where
// the bytes are headed, and never an adopted kit, which is not in the
// list — while they do not.
func (p *Pool) makeRoom(n int64, keep *Kit) bool {
	for p.held.Load()+n > p.limit.Load() {
		p.mu.Lock()
		i := slices.IndexFunc(p.kits, func(k *Kit) bool { return k != keep })
		var coldest *Kit
		if i >= 0 {
			coldest = p.kits[i]
			p.kits = slices.Delete(p.kits, i, i+1)
		}
		p.mu.Unlock()
		if coldest == nil {
			return false
		}
		coldest.evict()
	}
	return true
}

// evict drops every idle buffer of a kit the pool has just taken off
// its list, unmapping the ledgered ones that are mappings.
func (k *Kit) evict() {
	k.mu.Lock()
	k.evicted.Store(true)
	idle, dropped := k.idle, 0
	var ledgered [][]byte
	for c := range k.free {
		dropped += len(k.free[c]) + len(k.owned[c])
		ledgered = append(ledgered, k.free[c]...)
		k.free[c], k.owned[c] = nil, nil
	}
	k.idle = 0
	k.mu.Unlock()
	for _, b := range ledgered {
		k.p.drop(b)
	}
	k.p.held.Add(-idle)
	k.p.trims.Add(int64(dropped))
}

// backing reconstructs the byte buffer behind a slice that still
// carries its full capacity (Own); nil for an empty one.
func backing[T any](s []T) []byte {
	var t T
	esz := int(unsafe.Sizeof(t))
	if cap(s) == 0 || esz == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), cap(s)*esz)
}

// LeaseStats is one query's memory accounting.
type LeaseStats struct {
	// Acquired is the total bytes of buffers the query checked out
	// (class-rounded), owned ones included.
	Acquired int64
	// Reused is the portion of Acquired served from recycled arena
	// buffers rather than fresh allocations — the allocation traffic
	// the pool absorbed. Acquired - Reused is the fresh bytes.
	Reused int64
	// HighWater is the peak bytes the query had checked out at once —
	// its footprint, the admission cost model's unit.
	HighWater int64
}

// Lease is one query's checkout ledger over a kit. Acquire through the
// generic Slice helpers (or Bytes); Return hands single buffers back
// early, Release every one still out in one sweep. Safe for concurrent
// acquisition from multiple workers; Release must be called exactly
// once, after all acquirers are done — a ledgered buffer of a lease
// never released is never unmapped.
type Lease struct {
	kit      *Kit
	mu       sync.Mutex
	bufs     [][]byte
	released bool

	acquired int64
	reused   int64
	held     int64
	high     int64
}

// NewLease opens a checkout ledger, adopting an idle kit: the most
// recently released one that is whole (a query whose result is still
// out has left its kit short by the owned buffers), else the most
// recently released one, else an empty one.
func (p *Pool) NewLease() *Lease {
	p.leases.Add(1)
	p.mu.Lock()
	pick := len(p.kits) - 1
	for i := pick; i >= 0; i-- {
		if p.kits[i].whole() {
			pick = i
			break
		}
	}
	var k *Kit
	if pick >= 0 {
		k = p.kits[pick]
		p.kits = slices.Delete(p.kits, pick, pick+1)
	}
	p.mu.Unlock()
	if k == nil {
		k = &Kit{p: p}
	}
	return &Lease{kit: k}
}

// Kit returns the kit the lease draws from: where buffers it Owns go
// back to (Recycle).
func (l *Lease) Kit() *Kit { return l.kit }

// Bytes returns a dirty buffer of at least n bytes checked out until
// Release or Return.
func (l *Lease) Bytes(n int) []byte { return l.acquire(n, true) }

// acquire draws a buffer from the kit and books it in the lease's
// accounting; only a ledgered one goes back at Release.
func (l *Lease) acquire(n int, ledgered bool) []byte {
	buf, reused := l.kit.take(n, !ledgered)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.released {
		panic("mempool: acquisition on a released lease")
	}
	if ledgered {
		l.bufs = append(l.bufs, buf)
	}
	l.acquired += int64(cap(buf))
	if reused {
		l.reused += int64(cap(buf))
	}
	l.held += int64(cap(buf))
	if l.held > l.high {
		l.high = l.held
	}
	return buf
}

// Release returns every ledgered buffer to the kit and the kit to the
// Pool. Calling it a second time panics — a double release would hand
// buffers still referenced by one query to another.
func (l *Lease) Release() {
	l.mu.Lock()
	if l.released {
		l.mu.Unlock()
		panic("mempool: lease released twice")
	}
	l.released = true
	bufs := l.bufs
	l.bufs = nil
	l.held = 0
	l.mu.Unlock()
	for _, b := range bufs {
		l.kit.put(b, false)
	}
	p := l.kit.p
	p.mu.Lock()
	p.kits = append(p.kits, l.kit)
	p.mu.Unlock()
	p.leases.Add(-1)
}

// giveBack takes the ledgered buffer starting at p off the ledger and
// puts it back into the kit; a p no ledgered buffer starts at is left
// alone.
func (l *Lease) giveBack(p unsafe.Pointer) {
	l.mu.Lock()
	i := slices.IndexFunc(l.bufs, func(b []byte) bool { return unsafe.Pointer(unsafe.SliceData(b)) == p })
	if i < 0 {
		l.mu.Unlock()
		return
	}
	buf := l.bufs[i]
	l.bufs = slices.Delete(l.bufs, i, i+1)
	l.held -= int64(cap(buf))
	l.mu.Unlock()
	l.kit.put(buf, false)
}

// Stats snapshots the lease's accounting.
func (l *Lease) Stats() LeaseStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LeaseStats{Acquired: l.acquired, Reused: l.reused, HighWater: l.high}
}

// Slice returns a dirty []T of length n (and capacity >= n) checked
// out on the lease until Release or Return, or a plain make([]T, n)
// when l is nil (an engine already closed). T must be pointer-free: the
// backing memory is untyped bytes — off the Go heap from 64 KiB up —
// the GC will not scan for references.
func Slice[T any](l *Lease, n int) []T {
	return SliceCap[T](l, n, n)
}

// SliceCap returns a dirty []T of length n and capacity >= c. The
// result uses a three-index slice so appends past c reallocate into
// GC memory instead of overrunning a neighbouring checkout.
func SliceCap[T any](l *Lease, n, c int) []T {
	if c < n {
		c = n
	}
	if l == nil {
		return make([]T, n, c)
	}
	var t T
	esz := int(unsafe.Sizeof(t))
	if c == 0 || esz == 0 {
		return make([]T, n, c)
	}
	buf := l.Bytes(c * esz)
	return unsafe.Slice((*T)(unsafe.Pointer(&buf[0])), c)[:n:c]
}

// Own returns a dirty []T of length n whose buffer leaves with the
// caller: it counts in the lease's statistics like any acquisition —
// and as held until the lease is released — but is not on the ledger,
// so Release does not take it back, and it is always Go memory. The
// slice keeps the buffer's full class capacity; hand exactly that slice
// (any length) and the lease's Kit to Recycle when done, or drop it and
// the GC has it. A nil lease is a plain make.
func Own[T any](l *Lease, n int) []T {
	var t T
	esz := int(unsafe.Sizeof(t))
	if l == nil || n == 0 || esz == 0 {
		return make([]T, n)
	}
	buf := l.acquire(n*esz, false)
	return unsafe.Slice((*T)(unsafe.Pointer(&buf[0])), cap(buf)/esz)[:n]
}

// Return hands the ledgered buffers behind bufs — slices Slice or
// SliceCap returned on l, at any length — back to the kit before
// Release: the lease stops counting them as held, and a later
// acquisition, of this query or another, may be given them dirty (in
// race builds, poisoned). The caller must hold no other reference into
// them. A slice that does not start a ledgered buffer of l — a make,
// an owned or shared array, one already returned — is left alone, as
// is everything on a nil lease.
func Return[T any](l *Lease, bufs ...[]T) {
	if l == nil {
		return
	}
	for _, s := range bufs {
		if cap(s) > 0 {
			l.giveBack(unsafe.Pointer(unsafe.SliceData(s)))
		}
	}
}

// Recycle returns an Own'd slice's buffer to the kit it was drawn from
// (subject to the trim limit, like a lease's returns), idle or adopted
// alike. The caller must hold no other reference: the next acquisition
// overwrites it. Slices that are not a whole class-sized buffer — a
// make from a nil lease, a re-sliced tail — are left to the GC; a nil
// kit is a no-op.
func Recycle[T any](k *Kit, s []T) {
	if b := backing(s); k != nil && b != nil {
		k.put(b, true)
	}
}

// String renders the stats compactly (debug/report helper).
func (s Stats) String() string {
	return fmt.Sprintf("hits=%d misses=%d trims=%d held=%dB leases=%d hitrate=%.2f",
		s.Hits, s.Misses, s.Trims, s.HeldBytes, s.Leases, s.HitRate())
}
