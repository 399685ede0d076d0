package strategy

// Compressed execution at the strategy layer is a decode pass plus the
// raw plan. When Config.Compress is set and a side carries
// block-compressed images, each encoded input is decoded by a
// scan-shaped phase (exec.Engine.MaterializeCol) listed right before the
// first phase that reads it — the join keys before the join, a DSM
// side's projection columns before its fetch, a clustered side's column
// before its fetch-clustered, DSM pre-projection's inputs before the
// stitch, an NSM record image before key extraction — and every later
// phase runs the raw plan over the decoded arrays. Over join images the
// same holds: a compressed image plan is the decode pass plus the raw
// image plan (u/u): each side is handed encodings of its image-order
// columns in the join phase, its decode phase decodes those, and the raw
// fetch reads them through image positions — the larger side's
// sequentially, the smaller side's inside one partition.
// The plan itself (its methods, bits and window) is the raw plan's, and
// output bytes are identical either way: the decode reproduces the raw
// arrays exactly. Compression is never chosen by the cost model: a
// decode pass plus the raw plan cannot cost less than the raw plan
// alone, whose arrays always coexist with the encodings.

import (
	"fmt"
	"slices"

	"radixdecluster/internal/compress"
	"radixdecluster/internal/exec"
)

// encs lists the side's encodings (nil entries are fine — decide skips
// them); a side without a key encoding allocates nothing.
func (s DSMSide) encs() []*compress.Encoded {
	if s.KeysEnc == nil {
		return s.ColsEnc
	}
	return append([]*compress.Encoded{s.KeysEnc}, s.ColsEnc...)
}

// ownInputs gives the side a Cols list of its own and a ColsEnc list of
// its own as long as Cols, so the phases may swap image, decoded and
// encoded arrays into them without writing into the caller's lists.
func (s *DSMSide) ownInputs() {
	encs := make([]*compress.Encoded, len(s.Cols))
	copy(encs, s.ColsEnc)
	s.Cols, s.ColsEnc = slices.Clone(s.Cols), encs
}

// slot is one input of a compressed plan: the raw array the later
// phases read, and where the encoding a decode phase replaces it from
// is found (nil there: the input has none and stays raw). The encoding
// is read when the phase runs, not when it is listed.
type slot struct {
	raw *[]int32
	enc **compress.Encoded
}

// keySlot is the side's key column as a decode input.
func (s *DSMSide) keySlot() slot { return slot{&s.Keys, &s.KeysEnc} }

// colSlots are the side's projection columns [lo,hi) as decode inputs;
// the side's input lists must be its own (ownInputs).
func (s *DSMSide) colSlots(lo, hi int) []slot {
	out := make([]slot, 0, hi-lo)
	for k := lo; k < hi; k++ {
		out = append(out, slot{&s.Cols[k], &s.ColsEnc[k]})
	}
	return out
}

// recordSlot gives the side a relation header of its own and returns
// its record image as a decode input: once the phase has run, every
// later phase that reads s.Rel reads the decoded records.
func (s *NSMSide) recordSlot() slot {
	rel := *s.Rel
	s.Rel = &rel
	return slot{&rel.Data, &s.Enc}
}

// decodePhase lists the scan-shaped phase of a compressed plan that
// decodes each slot's encoding into a leased raw array and swaps it in,
// so the phases listed after it read raw arrays only. Slots none of
// which is encoded list nothing — unless images: a side fed from its
// join image learns its encodings only in the join phase, so its phase
// is listed and decodes whatever the image handed it (nothing where
// every column stayed raw).
func decodePhase(pl *exec.Pipeline, name string, images bool, slots ...slot) {
	if !images && !slices.ContainsFunc(slots, func(s slot) bool { return *s.enc != nil }) {
		return
	}
	pl.Then(exec.PhaseScan, name, func(e *exec.Engine) error {
		for _, s := range slots {
			if *s.enc == nil {
				continue
			}
			raw, err := e.MaterializeCol(*s.enc)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			*s.raw = raw
		}
		return nil
	})
}
