package strategy

// Compressed execution at the strategy layer (§5 footnote 5): when a
// side carries block-compressed images of its columns, the strategies
// can run their scans, gathers and clustered fetches over the encoded
// bytes — the memory bus carries the compressed stream while per-worker
// scratch holds the L1-resident decoded spans, so a bandwidth-bound
// plan's ceiling drops to the compression ratio. The decision is the
// planner's (Config.decide): costmodel.CompressedWins compares the raw
// plan against the transformed one (sequential bus traffic scaled by the
// measured ratio, CPU grown by the calibrated decode cost) at the plan's
// worker count. Output bytes are identical
// either way — the raw arrays always coexist, and every compressed
// operator decodes to exactly the same values.

import (
	"slices"

	"radixdecluster/internal/compress"
	"radixdecluster/internal/costmodel"
	"radixdecluster/internal/exec"
)

// CompressMode selects whether strategies execute over the sides'
// block-compressed column images.
type CompressMode int

const (
	// CompressOff executes over the raw arrays (default).
	CompressOff CompressMode = iota
	// CompressAuto lets the cost model decide per strategy: the
	// compression term shrinks the modeled bus traffic by the measured
	// ratio and charges the calibrated per-value decode cost, and the
	// cheaper representation wins (costmodel.CompressedWins).
	CompressAuto
	// CompressOn executes compressed whenever an encoding is present.
	CompressOn
)

func (m CompressMode) String() string {
	switch m {
	case CompressAuto:
		return "auto"
	case CompressOn:
		return "on"
	}
	return "off"
}

// encs lists the side's encodings (nil entries are fine — the
// aggregator skips them); a side without a key encoding allocates
// nothing.
func (s DSMSide) encs() []*compress.Encoded {
	if s.KeysEnc == nil {
		return s.ColsEnc
	}
	return append([]*compress.Encoded{s.KeysEnc}, s.ColsEnc...)
}

// view returns projection column k as an execution view: compressed
// when requested and an encoding exists, raw otherwise.
func (s DSMSide) view(k int, comp bool) exec.Col {
	c := exec.RawCol(s.Cols[k])
	if comp && k < len(s.ColsEnc) && s.ColsEnc[k] != nil {
		c.Enc = s.ColsEnc[k]
	}
	return c
}

// views returns every projection column as an execution view.
func (s DSMSide) views(comp bool) []exec.Col {
	out := make([]exec.Col, len(s.Cols))
	for k := range s.Cols {
		out[k] = s.view(k, comp)
	}
	return out
}

// keysView returns the key column as an execution view.
func (s DSMSide) keysView(comp bool) exec.Col {
	c := exec.RawCol(s.Keys)
	if comp && s.KeysEnc != nil {
		c.Enc = s.KeysEnc
	}
	return c
}

// compressionTerm aggregates encodings into the cost model's
// compression term: the byte-weighted compression ratio, the total
// values one decode pass covers, and the value-weighted calibrated
// decode cost. Zero (disabled) when nothing is encoded.
func compressionTerm(encs [][]*compress.Encoded) costmodel.Compression {
	var raw, enc int64
	var values int
	var ns float64
	for _, e := range slices.Concat(encs...) {
		if e == nil || e.Len() == 0 {
			continue
		}
		raw += int64(e.RawBytes())
		enc += int64(e.CompressedBytes())
		values += e.Len()
		ns += float64(e.Len()) * costmodel.DecodeNanos(e.Scheme())
	}
	if values == 0 || raw == 0 {
		return costmodel.Compression{}
	}
	return costmodel.Compression{
		Ratio:    float64(enc) / float64(raw),
		Values:   values,
		DecodeNs: ns / float64(values),
	}
}
