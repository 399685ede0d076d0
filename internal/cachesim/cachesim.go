// Package cachesim is a trace-driven cache and TLB simulator — this
// repository's substitute for the hardware performance counters the
// paper reads (§4.1, Figure 7a).
//
// The paper instruments its algorithms with event counters for L1,
// L2 and TLB misses. Pure Go cannot read PMCs portably, so instead
// the access-pattern replayers in internal/trace drive this simulator
// with the algorithms' exact load/store sequences, and the simulator
// counts the same events: set-associative LRU data caches, a fully-
// associative TLB at page granularity, and a distinction between
// sequential and random misses so a modeled elapsed time can be
// derived from the per-level latencies.
//
// Addresses are synthetic: Alloc hands out page-aligned regions in a
// flat address space, so traces never touch real memory.
package cachesim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"radixdecluster/internal/mem"
)

// cache is one set-associative LRU level.
type cache struct {
	level    mem.Level
	lineBits uint
	setMask  uint64
	assoc    int
	// sets holds tags in LRU order, most recent first. tag 0 means
	// empty (addresses start at one page, so tag 0 never occurs).
	sets [][]uint64

	// Event counters. Atomic so that concurrent readers (a monitor
	// polling Counters while the parallel executor drives a traced
	// run) see consistent values without taking the Sim lock.
	hits      atomic.Uint64
	misses    atomic.Uint64
	seqMisses atomic.Uint64 // miss on the line directly after the previous access's
	lastLine  uint64
	havePrev  bool
}

func newCache(l mem.Level) *cache {
	lines := l.Lines()
	assoc := l.Assoc
	if assoc <= 0 || assoc > lines {
		assoc = lines // fully associative
	}
	nsets := lines / assoc
	if nsets < 1 {
		nsets = 1
	}
	c := &cache{
		level:    l,
		lineBits: uint(mem.Log2Floor(l.LineSize)),
		setMask:  uint64(nsets - 1),
		assoc:    assoc,
		sets:     make([][]uint64, nsets),
	}
	for i := range c.sets {
		c.sets[i] = make([]uint64, 0, assoc)
	}
	return c
}

// access looks up the line containing addr; returns true on hit.
func (c *cache) access(line uint64) bool {
	set := c.sets[line&c.setMask]
	for i, tag := range set {
		if tag == line {
			// Move to front (LRU update).
			copy(set[1:i+1], set[:i])
			set[0] = line
			c.hits.Add(1)
			c.noteLine(line)
			return true
		}
	}
	// Miss: insert at front, evict LRU if full.
	if len(set) == c.assoc {
		copy(set[1:], set[:c.assoc-1])
		set[0] = line
	} else {
		set = append(set, 0)
		copy(set[1:], set[:len(set)-1])
		set[0] = line
		c.sets[line&c.setMask] = set
	}
	c.misses.Add(1)
	if c.havePrev && (line == c.lastLine+1 || line == c.lastLine) {
		c.seqMisses.Add(1)
	}
	c.noteLine(line)
	return false
}

func (c *cache) noteLine(line uint64) {
	c.lastLine = line
	c.havePrev = true
}

// Sim bundles the simulated hierarchy. It is safe for concurrent use:
// accesses serialise on an internal lock (the LRU state is inherently
// sequential), and the event counters are atomic, so replayers driven
// by the parallel executor (internal/exec) still count every event
// and Counters can be read while a trace is running.
type Sim struct {
	H      mem.Hierarchy
	mu     sync.Mutex
	caches []*cache // data caches, innermost first
	tlb    *cache
	brk    uint64 // bump allocator
}

// New builds a simulator for the hierarchy.
func New(h mem.Hierarchy) (*Sim, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	s := &Sim{H: h, brk: 1 << 20} // start above zero so tag 0 stays unused
	for _, l := range h.Levels {
		if l.IsTLB {
			if s.tlb == nil {
				s.tlb = newCache(l)
			}
		} else {
			s.caches = append(s.caches, newCache(l))
		}
	}
	if len(s.caches) == 0 {
		return nil, fmt.Errorf("cachesim: hierarchy has no data caches")
	}
	return s, nil
}

// Region is an allocated span of simulated memory.
type Region struct {
	Name string
	Base uint64
	Size int
}

// Alloc reserves a page-aligned region. A guard page separates
// regions so traces cannot accidentally share lines across regions.
func (s *Sim) Alloc(name string, bytes int) Region {
	const page = 4096
	if bytes < 1 {
		bytes = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	base := (s.brk + page - 1) &^ uint64(page-1)
	s.brk = base + uint64(bytes) + page
	return Region{Name: name, Base: base, Size: bytes}
}

// Load simulates reading size bytes at offset off of region r.
func (s *Sim) Load(r Region, off, size int) { s.access(r, off, size) }

// Store simulates writing size bytes (write-allocate: identical cache
// behaviour to Load for miss counting).
func (s *Sim) Store(r Region, off, size int) { s.access(r, off, size) }

func (s *Sim) access(r Region, off, size int) {
	if off < 0 || size < 1 || off+size > r.Size {
		panic(fmt.Sprintf("cachesim: access [%d,%d) outside region %s of %d bytes", off, off+size, r.Name, r.Size))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	addr := r.Base + uint64(off)
	end := addr + uint64(size)
	// Walk the distinct cache lines of the innermost level; outer
	// levels are only consulted on inner misses (their line sizes are
	// multiples, so an inner miss line maps to one outer line).
	l0 := s.caches[0]
	for line := addr >> l0.lineBits; line <= (end-1)>>l0.lineBits; line++ {
		if !l0.access(line) {
			byteAddr := line << l0.lineBits
			for _, c := range s.caches[1:] {
				if c.access(byteAddr >> c.lineBits) {
					break // satisfied at this level
				}
			}
		}
	}
	if s.tlb != nil {
		for page := addr >> s.tlb.lineBits; page <= (end-1)>>s.tlb.lineBits; page++ {
			s.tlb.access(page)
		}
	}
}

// Counts is a snapshot of one level's counters.
type Counts struct {
	Level     string
	Hits      uint64
	Misses    uint64
	SeqMisses uint64
}

// Counters returns per-level snapshots, data caches first, then the
// TLB (named as in the hierarchy). It may be called while a trace is
// running; the counters are read atomically.
func (s *Sim) Counters() []Counts {
	snap := func(c *cache) Counts {
		return Counts{Level: c.level.Name, Hits: c.hits.Load(), Misses: c.misses.Load(), SeqMisses: c.seqMisses.Load()}
	}
	var out []Counts
	for _, c := range s.caches {
		out = append(out, snap(c))
	}
	if s.tlb != nil {
		out = append(out, snap(s.tlb))
	}
	return out
}

// MissesOf returns the miss count of the named level.
func (s *Sim) MissesOf(name string) uint64 {
	for _, c := range s.Counters() {
		if c.Level == name {
			return c.Misses
		}
	}
	return 0
}

// Reset clears all counters (cache contents survive; call after a
// warm-up pass to measure steady state).
func (s *Sim) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	clear := func(c *cache) {
		c.hits.Store(0)
		c.misses.Store(0)
		c.seqMisses.Store(0)
		c.havePrev = false
	}
	for _, c := range s.caches {
		clear(c)
	}
	if s.tlb != nil {
		clear(s.tlb)
	}
}

// ModeledNanos converts the counted events into an elapsed-time
// estimate: sequential misses pay the prefetch-discounted latency,
// random misses the full one (§1.1's sequential-vs-random gap).
func (s *Sim) ModeledNanos() float64 {
	total := 0.0
	add := func(c *cache) {
		seq, miss := c.seqMisses.Load(), c.misses.Load()
		total += float64(seq)*c.level.SeqLatency +
			float64(miss-seq)*c.level.MissLatency
	}
	for _, c := range s.caches {
		add(c)
	}
	if s.tlb != nil {
		add(s.tlb)
	}
	return total
}
