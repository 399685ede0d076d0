package strategy

// Compressed execution at the strategy layer comes in two shapes, both
// running the raw plan's methods, bits and window. When Config.Compress
// is set and a side carries block-compressed images, a plan over
// base-order inputs decodes each encoded input by a scan-shaped phase
// (exec.Engine.MaterializeCol) listed right before the first phase that
// reads it — the join keys before the join, a DSM side's projection
// columns before its fetch, a clustered side's column before its
// fetch-clustered, DSM pre-projection's inputs before the stitch, an NSM
// record image before key extraction — and every later phase runs over
// the decoded arrays. A plan over join images (u/u) lists no decode
// phase: each side is handed encodings of its image-order columns in the
// join phase, and its fetch (exec.Engine.FetchImage, the raw image
// plan's fetch too) decodes each partition's image range into a worker's
// scratch where it gathers that partition's matches — the larger side's
// reads sequential, the smaller side's inside one partition — so no
// decoded column is leased. Output bytes are identical to the raw plan's
// either way: the decode reproduces the raw values exactly. Compression
// is never chosen by the cost model: decoding cannot make a plan cost
// less than the raw plan, whose arrays always coexist with the
// encodings.

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

// decodePhase lists the scan-shaped phase of a compressed plan over
// base-order inputs that decodes each slot's encoding into a leased raw
// array and swaps it in, so the phases listed after it read raw arrays
// only. Slots none of which is encoded list nothing.
func decodePhase(pl *exec.Pipeline, name string, slots ...slot) {
	if !slices.ContainsFunc(slots, func(s slot) bool { return *s.enc != nil }) {
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
