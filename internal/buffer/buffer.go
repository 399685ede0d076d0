// Package buffer implements the Section-5 integration sketch: using
// DSM Radix-Decluster inside an NSM RDBMS whose output lives in
// buffer-manager pages rather than one contiguous array.
//
// The problem (Figure 12): Radix-Decluster inserts "by position" into
// its result, but a buffer pool is not positionally addressable —
// and with variable-sized values (strings) a tuple's byte position
// depends on all tuples before it. The paper's solution is three
// phases:
//
//  1. run Radix-Decluster, but instead of inserting values, record
//     each tuple's (variable) length in an integer array SIZE_VALUES —
//     which *is* positionally addressable;
//  2. one sequential pass turns the lengths into page/offset
//     placements (incremental sums, plus the page-capacity arithmetic
//     of the figure: a record occupies its bytes plus a 2-byte offset
//     slot at the end of its page);
//  3. run Radix-Decluster again, copying each value to its
//     precomputed page and offset.
//
// For fixed-size values the extra passes are unnecessary — page and
// offset follow directly from the result sequence number — which
// DeclusterFixed exploits.
package buffer

import (
	"encoding/binary"
	"fmt"
	"sort"

	"radixdecluster/internal/bat"
	"radixdecluster/internal/core"
)

// OID mirrors bat.OID.
type OID = bat.OID

// HeaderSize is the per-page header (Figure 12's "hdr"): page id and
// record count.
const HeaderSize = 8

// slotSize is the per-record offset short at the end of the page.
const slotSize = 2

// Page is one fixed-size buffer-pool page: header, data area growing
// forward, and 2-byte record-offset slots growing backward from the
// end (the classic slotted layout the figure draws).
type Page struct {
	Buf []byte
	// nrec is the number of records placed on this page.
	nrec int
	// used is the next free data byte (from the start of the data area).
	used int
}

// setSlot stores the data-area offset of record slot s.
func (p *Page) setSlot(s int, off int) {
	pos := len(p.Buf) - (s+1)*slotSize
	binary.LittleEndian.PutUint16(p.Buf[pos:], uint16(off))
}

// slot reads the data-area offset of record slot s.
func (p *Page) slot(s int) int {
	pos := len(p.Buf) - (s+1)*slotSize
	return int(binary.LittleEndian.Uint16(p.Buf[pos:]))
}

// Pool is a set of equally sized pages holding one result column.
type Pool struct {
	PageSize int
	Pages    []*Page
	// firstRec[k] is the result position of the first record on page k.
	firstRec []int
	// total is the number of records stored.
	total int
}

// NumRecords returns the stored record count.
func (p *Pool) NumRecords() int { return p.total }

// NumPages returns the allocated page count.
func (p *Pool) NumPages() int { return len(p.Pages) }

// Record returns the bytes of the record at result position i.
func (p *Pool) Record(i int) ([]byte, error) {
	if i < 0 || i >= p.total {
		return nil, fmt.Errorf("buffer: record %d outside [0,%d)", i, p.total)
	}
	// Binary search the page whose firstRec covers i.
	k := sort.Search(len(p.firstRec), func(k int) bool { return p.firstRec[k] > i }) - 1
	pg := p.Pages[k]
	s := i - p.firstRec[k]
	start := HeaderSize + pg.slot(s)
	var end int
	if s+1 < pg.nrec {
		end = HeaderSize + pg.slot(s+1)
	} else {
		end = HeaderSize + pg.used
	}
	return pg.Buf[start:end], nil
}

// placement is the phase-2 output for one result position.
type placement struct {
	page int
	off  int // offset within the data area
	slot int
}

// plan runs phase 2: the sequential pass over SIZE_VALUES that
// computes each record's page, offset and slot. A record needs
// size+slotSize bytes of page capacity; records never straddle pages
// (they bump to the next page, as a slotted-page manager would).
func plan(sizes []int32, pageSize int) ([]placement, int, error) {
	cap := pageSize - HeaderSize
	placements := make([]placement, len(sizes))
	page, nrec := 0, 0
	dataUsed, totalUsed := 0, 0 // data bytes vs data+slot bytes on this page
	for i, sz := range sizes {
		need := int(sz) + slotSize
		if need > cap {
			return nil, 0, fmt.Errorf("buffer: record %d of %d bytes exceeds page capacity %d", i, sz, cap-slotSize)
		}
		if totalUsed+need > cap {
			page++
			dataUsed, totalUsed, nrec = 0, 0, 0
		}
		placements[i] = placement{page: page, off: dataUsed, slot: nrec}
		dataUsed += int(sz)
		totalUsed += need
		nrec++
	}
	return placements, page + 1, nil
}

// DeclusterVarsize runs the full Figure-12 pipeline: values is the
// variable-width column in *clustered* order (CLUST_VALUES as a
// VarColumn), ids/borders/window the usual Radix-Decluster inputs.
// The result column lands in a fresh pool of pageSize-byte pages, in
// result order.
func DeclusterVarsize(values *bat.VarColumn, ids []OID, borders []bat.Border, window, pageSize int) (*Pool, error) {
	n := values.Len()
	if len(ids) != n {
		return nil, fmt.Errorf("buffer: %d values vs %d ids", n, len(ids))
	}
	if pageSize <= HeaderSize+slotSize {
		return nil, fmt.Errorf("buffer: page size %d too small", pageSize)
	}
	// Phase 1: Radix-Decluster, but only fill the integer array
	// SIZE_VALUES with the tuple lengths.
	sizes := make([]int32, n)
	err := core.DeclusterFunc(ids, borders, window, func(pos OID, src int) {
		sizes[pos] = int32(values.Size(OID(src)))
	})
	if err != nil {
		return nil, err
	}
	// Phase 2: sequential pass creating incremental sums → placements.
	placements, npages, err := plan(sizes, pageSize)
	if err != nil {
		return nil, err
	}
	pool := &Pool{PageSize: pageSize, total: n}
	pool.Pages = make([]*Page, npages)
	pool.firstRec = make([]int, npages)
	for k := range pool.Pages {
		pool.Pages[k] = &Page{Buf: make([]byte, pageSize)}
		pool.firstRec[k] = n // patched below
	}
	for i, pl := range placements {
		if i < pool.firstRec[pl.page] {
			pool.firstRec[pl.page] = i
		}
	}
	// Phase 3: Radix-Decluster again, copying each value to its
	// correct page and offset.
	err = core.DeclusterFunc(ids, borders, window, func(pos OID, src int) {
		pl := placements[pos]
		pg := pool.Pages[pl.page]
		copy(pg.Buf[HeaderSize+pl.off:], values.At(OID(src)))
		pg.setSlot(pl.slot, pl.off)
		if end := pl.off + values.Size(OID(src)); end > pg.used {
			pg.used = end
		}
		if pl.slot+1 > pg.nrec {
			pg.nrec = pl.slot + 1
		}
	})
	if err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint32(pool.Pages[0].Buf[0:], uint32(n)) // header: total count
	return pool, nil
}

// DeclusterFixed is the fixed-width shortcut noted at the end of §5:
// page and offset can be determined from the result sequence number
// alone, so a single Radix-Decluster pass writes straight into pages.
func DeclusterFixed(values []int32, ids []OID, borders []bat.Border, window, pageSize int) (*Pool, error) {
	n := len(values)
	if len(ids) != n {
		return nil, fmt.Errorf("buffer: %d values vs %d ids", n, len(ids))
	}
	const recBytes = 4
	perPage := (pageSize - HeaderSize) / (recBytes + slotSize)
	if perPage < 1 {
		return nil, fmt.Errorf("buffer: page size %d too small", pageSize)
	}
	npages := (n + perPage - 1) / perPage
	if npages == 0 {
		npages = 1
	}
	pool := &Pool{PageSize: pageSize, total: n}
	pool.Pages = make([]*Page, npages)
	pool.firstRec = make([]int, npages)
	for k := range pool.Pages {
		pool.Pages[k] = &Page{Buf: make([]byte, pageSize)}
		pool.firstRec[k] = k * perPage
		cnt := perPage
		if k == npages-1 && n > 0 {
			cnt = n - k*perPage
		}
		pool.Pages[k].nrec = cnt
		pool.Pages[k].used = cnt * recBytes
		for s := 0; s < cnt; s++ {
			pool.Pages[k].setSlot(s, s*recBytes)
		}
	}
	err := core.DeclusterFunc(ids, borders, window, func(pos OID, src int) {
		k := int(pos) / perPage
		off := HeaderSize + (int(pos)%perPage)*recBytes
		binary.LittleEndian.PutUint32(pool.Pages[k].Buf[off:], uint32(values[src]))
	})
	if err != nil {
		return nil, err
	}
	return pool, nil
}
