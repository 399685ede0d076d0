package strategy

import (
	"fmt"

	"radixdecluster/internal/bat"
	"radixdecluster/internal/compress"
	"radixdecluster/internal/core"
	"radixdecluster/internal/costmodel"
	"radixdecluster/internal/exec"
	"radixdecluster/internal/jive"
	"radixdecluster/internal/join"
	"radixdecluster/internal/nsm"
	"radixdecluster/internal/radix"
)

// NSMSide describes one join side for the NSM strategies: a row-store
// relation, its key attribute, and the attribute offsets to project.
type NSMSide struct {
	Rel      *nsm.Relation
	KeyCol   int
	ProjCols []int
	// Enc is an optional block-compressed image of Rel.Data; it must
	// decode to exactly the raw records. Config.Compress selects whether
	// a run decodes it.
	Enc *compress.Encoded
}

func (s NSMSide) validate(name string) error {
	if s.Rel == nil {
		return fmt.Errorf("strategy: %s: nil relation", name)
	}
	if s.KeyCol < 0 || s.KeyCol >= s.Rel.Width {
		return fmt.Errorf("strategy: %s: key column %d outside width %d", name, s.KeyCol, s.Rel.Width)
	}
	for _, c := range s.ProjCols {
		if c < 0 || c >= s.Rel.Width {
			return fmt.Errorf("strategy: %s: projection column %d outside width %d", name, c, s.Rel.Width)
		}
	}
	if s.Enc != nil && s.Enc.Len() != len(s.Rel.Data) {
		return fmt.Errorf("strategy: %s: record encoding holds %d values, want %d", name, s.Enc.Len(), len(s.Rel.Data))
	}
	return nil
}

// projBytes is the width of the side's projected record (one field's
// width when nothing is projected).
func (s NSMSide) projBytes() int { return max(len(s.ProjCols)*4, 4) }

// scanWide extracts the [key | π] wide tuples of an NSM
// pre-projection scan, record at a time (the paper's "NSM projection
// routine"), chunked on the engine.
func (s NSMSide) scanWide(e *exec.Engine) ([]int32, error) {
	cols := make([]int, 0, len(s.ProjCols)+1)
	cols = append(cols, s.KeyCol)
	cols = append(cols, s.ProjCols...)
	rel, err := e.ScanProject(s.Rel, s.Rel.Name+"_wide", cols)
	if err != nil {
		return nil, err
	}
	return rel.Data, nil
}

// validateNSM checks both sides of an NSM strategy.
func validateNSM(larger, smaller NSMSide) error {
	if err := larger.validate("larger"); err != nil {
		return err
	}
	return smaller.validate("smaller")
}

// PlanNSMPre is NSMPre's plan step.
func PlanNSMPre(larger, smaller NSMSide, partitioned bool, cfg Config) (Plan, CostFn, error) {
	if err := validateNSM(larger, smaller); err != nil {
		return Plan{}, nil, err
	}
	lw, sw := 1+len(larger.ProjCols), 1+len(smaller.ProjCols)
	p := Plan{LargerMethod: 'p', SmallerMethod: 'p'}
	if partitioned {
		p.JoinBits = join.PlanBits(smaller.Rel.Len(), sw*4, cfg.hier().LLC().Size)
	}
	cost := rowsCost(larger.Rel.Len(), smaller.Rel.Len(), lw, sw, p.JoinBits)
	cfg.decide(&p, larger.Rel.Len()+smaller.Rel.Len(), []*compress.Encoded{larger.Enc, smaller.Enc})
	return p, cost, nil
}

// NSMPre runs NSM pre-projection: projection attributes are copied
// out of the wide records during the scan and travel through the
// join. partitioned=false is the naive "NSM-pre-hash" baseline of
// Figure 10; true is the cache-conscious "NSM-pre-phash". A compressed
// plan decodes the record images ahead of the scan.
func NSMPre(larger, smaller NSMSide, partitioned bool, cfg Config) (*Result, error) {
	cfg.Runtime = cfg.rt()
	p, _, err := PlanNSMPre(larger, smaller, partitioned, cfg)
	if err != nil {
		return nil, err
	}
	lw, sw := 1+len(larger.ProjCols), 1+len(smaller.ProjCols)
	pl := cfg.pipeline(p, nsmAffinitySeed(larger))
	defer pl.Close()
	res := &Result{Plan: p}

	if p.Compressed {
		decodePhase(pl, "decompress-records", larger.recordSlot(), smaller.recordSlot())
	}
	var lRows, sRows []int32
	pl.Then(exec.PhaseScan, "nsm-scan-project", func(e *exec.Engine) error {
		var err error
		if lRows, err = larger.scanWide(e); err != nil {
			return err
		}
		sRows, err = smaller.scanWide(e)
		return err
	})
	pl.Then(exec.PhaseJoin, "rows-join", func(e *exec.Engine) error {
		var rr *join.RowsResult
		var err error
		if partitioned {
			rr, err = e.PartitionedRowsJoin(lRows, lw, 0, sRows, sw, 0, joinOpts(p.JoinBits, cfg.hier()))
		} else {
			rr, err = e.HashRowsJoin(lRows, lw, 0, sRows, sw, 0)
		}
		exec.Return(e, lRows, sRows)
		if err != nil {
			return err
		}
		res.Rows, res.RowWidth = rr.Rows, rr.Width
		res.N = rr.Len()
		return nil
	})
	return res.run(pl)
}

// PlanNSMPostDecluster is NSMPostDecluster's plan step: the cluster
// granularity must fit whole-record spans in the cache, so the tuple
// width counts in both bit counts.
func PlanNSMPostDecluster(larger, smaller NSMSide, cfg Config) (Plan, CostFn, error) {
	if err := validateNSM(larger, smaller); err != nil {
		return Plan{}, nil, err
	}
	h := cfg.hier()
	c := h.LLC().Size
	nL, nS := larger.Rel.Len(), smaller.Rel.Len()
	piL, piS := len(larger.ProjCols), len(smaller.ProjCols)
	window := core.PlanWindow(h, smaller.projBytes())
	p := Plan{
		LargerMethod: PartialCluster, SmallerMethod: Declustered,
		JoinBits:    join.PlanBits(nS, 4, c),
		LargerBits:  radix.OptimalBits(nL, larger.Rel.TupleBytes(), c),
		SmallerBits: declusterBits(nS, smaller.Rel.TupleBytes(), c, window),
		Window:      window,
	}
	baseN := max(nL, nS)
	omegaBytes := max(larger.Rel.TupleBytes(), smaller.Rel.TupleBytes())
	projBytes, bits := max(piL, piS)*4, max(1, p.LargerBits)
	cost := func(m costmodel.Model) costmodel.Cost {
		return costmodel.NSMPostDecluster(m, nL, baseN, omegaBytes, projBytes, bits, window)
	}
	cfg.decide(&p, nL+nS, []*compress.Encoded{larger.Enc, smaller.Enc})
	return p, cost, nil
}

// NSMPostDecluster runs post-projection over NSM storage with the
// Radix algorithms: key columns are extracted for the join-index, the
// join-index is partially clustered for the larger side's record
// gathers, and the smaller side goes through clustered gathers +
// Radix-Decluster. Because Positional-Joins now touch ω-wide records,
// the cluster granularity must fit whole-record spans in the cache —
// the tuple-width penalty that makes this strategy lag DSM
// post-projection (§4.2). A compressed plan decodes the record images
// ahead of the key extraction.
func NSMPostDecluster(larger, smaller NSMSide, cfg Config) (*Result, error) {
	cfg.Runtime = cfg.rt()
	p, _, err := PlanNSMPostDecluster(larger, smaller, cfg)
	if err != nil {
		return nil, err
	}
	piL, piS := len(larger.ProjCols), len(smaller.ProjCols)
	pl := cfg.pipeline(p, nsmAffinitySeed(larger))
	defer pl.Close()
	res := &Result{Plan: p}

	// Key extraction scans.
	if p.Compressed {
		decodePhase(pl, "decompress-records", larger.recordSlot(), smaller.recordSlot())
	}
	var lKeys, sKeys []int32
	var lOIDs, sOIDs []OID
	pl.Then(exec.PhaseScan, "key-extraction", func(e *exec.Engine) error {
		var err error
		if lKeys, err = e.ScanColumn(larger.Rel, larger.KeyCol); err != nil {
			return err
		}
		if sKeys, err = e.ScanColumn(smaller.Rel, smaller.KeyCol); err != nil {
			return err
		}
		lOIDs = bat.Dense(larger.Rel.Len())
		sOIDs = bat.Dense(smaller.Rel.Len())
		return nil
	})
	var ji *join.Index
	pl.Then(exec.PhaseJoin, "partitioned-hash-join", func(e *exec.Engine) error {
		var err error
		ji, err = e.PartitionedJoin(lOIDs, lKeys, sOIDs, sKeys, joinOpts(p.JoinBits, cfg.hier()))
		exec.Return(e, lKeys, sKeys)
		if err != nil {
			return err
		}
		res.N = ji.Len()
		return nil
	})

	// Larger side: partial-cluster the join-index so each cluster's
	// record span fits the cache, then gather the projected fields
	// straight into the result records.
	var cl *radix.OIDPairsResult
	pl.Then(exec.PhaseReorder, "partial-cluster-join-index", func(e *exec.Engine) error {
		var err error
		cl, err = e.ClusterOIDPairs(ji.Larger, ji.Smaller, clusterOpts(p.LargerBits, larger.Rel.Len()))
		exec.Return(e, ji.Larger, ji.Smaller) // dead from here on, like DSMPost's intermediates
		ji = nil
		return err
	})
	pl.Then(exec.PhaseProjectLarger, "gather-larger", func(e *exec.Engine) error {
		res.RowWidth = piL + piS
		res.Rows = e.Own(res.N * res.RowWidth)
		err := e.GatherProjectInto(larger.Rel, res.Rows, res.RowWidth, 0, cl.Key, larger.ProjCols)
		exec.Return(e, cl.Key)
		cl.Key = nil
		return err
	})

	// Smaller side: re-cluster on the smaller oid, gather the fields
	// in clustered order, then Radix-Decluster whole projected records
	// into the result. With nothing to project the whole side is
	// skipped (the clustering output would go unread).
	if piS > 0 {
		var cl2 *core.Clustered
		pl.Then(exec.PhaseReorder, "recluster-smaller", func(e *exec.Engine) error {
			var err error
			cl2, err = e.ClusterForDecluster(cl.Other, clusterOpts(p.SmallerBits, smaller.Rel.Len()))
			exec.Return(e, cl.Other)
			cl = nil
			return err
		})
		var clustered *nsm.Relation
		pl.Then(exec.PhaseProjectSmaller, "gather-smaller", func(e *exec.Engine) error {
			var err error
			clustered, err = e.GatherProject(smaller.Rel, "sproj", cl2.SmallerOIDs, smaller.ProjCols)
			return err
		})
		pl.Then(exec.PhaseDecluster, "radix-decluster-rows", func(e *exec.Engine) error {
			err := e.DeclusterRowsInto(res.Rows, res.RowWidth, piL,
				clustered.Data, piS, cl2.ResultPos, cl2.Borders, p.Window)
			exec.Return(e, clustered.Data)
			exec.Return(e, cl2.SmallerOIDs, cl2.ResultPos)
			return err
		})
	}
	return res.run(pl)
}

// jiveFanout sizes the Jive fan-out (jiveBits 0 = the planner's) so
// one cluster's write-back region of the resultN-tuple result — the
// right phase's random access — fits the cache.
func jiveFanout(jiveBits, resultN, projBytes, cacheBytes int) int {
	if jiveBits != 0 {
		return jiveBits
	}
	return radix.OptimalBits(resultN, projBytes, cacheBytes)
}

// PlanNSMPostJive is NSMPostJive's plan step. The fan-out it records
// (SmallerBits) assumes the result is as large as the larger input; the
// run re-derives it from the actual result cardinality.
func PlanNSMPostJive(larger, smaller NSMSide, jiveBits int, cfg Config) (Plan, CostFn, error) {
	if err := validateNSM(larger, smaller); err != nil {
		return Plan{}, nil, err
	}
	c := cfg.hier().LLC().Size
	nL, nS := larger.Rel.Len(), smaller.Rel.Len()
	p := Plan{
		LargerMethod: 'j', SmallerMethod: 'j',
		JoinBits:    join.PlanBits(nS, 4, c),
		SmallerBits: jiveFanout(jiveBits, nL, smaller.projBytes(), c),
	}
	omegaBytes := max(larger.Rel.TupleBytes(), smaller.Rel.TupleBytes())
	projBytes, bits := smaller.projBytes(), max(1, p.SmallerBits)
	cost := func(m costmodel.Model) costmodel.Cost {
		return costmodel.JivePost(m, nL, nL, nS, omegaBytes, projBytes, bits)
	}
	cfg.decide(&p, nL+nS, []*compress.Encoded{larger.Enc, smaller.Enc})
	return p, cost, nil
}

// NSMPostJive runs post-projection with Jive-Join [LR99]: sort the
// join-index on the larger oids, then Left/Right Jive over the NSM
// records. jiveBits 0 lets the planner size the fan-out so each
// cluster's write-back region fits the cache. A compressed plan decodes
// the record images ahead of the key extraction, and both Jive phases
// read the decoded records.
func NSMPostJive(larger, smaller NSMSide, jiveBits int, cfg Config) (*Result, error) {
	cfg.Runtime = cfg.rt()
	p, _, err := PlanNSMPostJive(larger, smaller, jiveBits, cfg)
	if err != nil {
		return nil, err
	}
	h := cfg.hier()
	pl := cfg.pipeline(p, nsmAffinitySeed(larger))
	defer pl.Close()
	res := &Result{Plan: p}

	if p.Compressed {
		decodePhase(pl, "decompress-records", larger.recordSlot(), smaller.recordSlot())
	}
	var lKeys, sKeys []int32
	var lOIDs, sOIDs []OID
	pl.Then(exec.PhaseScan, "key-extraction", func(e *exec.Engine) error {
		var err error
		if lKeys, err = e.ScanColumn(larger.Rel, larger.KeyCol); err != nil {
			return err
		}
		if sKeys, err = e.ScanColumn(smaller.Rel, smaller.KeyCol); err != nil {
			return err
		}
		lOIDs = bat.Dense(larger.Rel.Len())
		sOIDs = bat.Dense(smaller.Rel.Len())
		return nil
	})
	var ji *join.Index
	pl.Then(exec.PhaseJoin, "partitioned-hash-join", func(e *exec.Engine) error {
		var err error
		ji, err = e.PartitionedJoin(lOIDs, lKeys, sOIDs, sKeys, joinOpts(p.JoinBits, h))
		exec.Return(e, lKeys, sKeys)
		if err != nil {
			return err
		}
		res.N = ji.Len()
		return nil
	})

	// Jive requires the join-index sorted on the left table's oids.
	var sorted *join.Index
	pl.Then(exec.PhaseReorder, "sort-join-index", func(e *exec.Engine) error {
		srt, err := e.SortOIDPairs(ji.Larger, ji.Smaller, h)
		if err != nil {
			return err
		}
		exec.Return(e, ji.Larger, ji.Smaller)
		sorted, ji = &join.Index{Larger: srt.Key, Smaller: srt.Other}, nil
		return nil
	})

	var lr *jive.LeftRowsResult
	pl.Then(exec.PhaseProjectLarger, "jive-left", func(e *exec.Engine) error {
		res.SmallerBits = jiveFanout(jiveBits, res.N, smaller.projBytes(), h.LLC().Size)
		var err error
		lr, err = e.JiveLeft(sorted, larger.Rel, larger.ProjCols, smaller.Rel.Len(), res.SmallerBits)
		exec.Return(e, sorted.Larger, sorted.Smaller)
		sorted = nil
		return err
	})
	var rr *nsm.Relation
	pl.Then(exec.PhaseProjectSmaller, "jive-right", func(e *exec.Engine) error {
		var err error
		rr, err = e.JiveRight(lr, smaller.Rel, smaller.ProjCols)
		exec.Return(e, lr.RightOIDs, lr.ResultPos)
		return err
	})
	pl.Then(exec.PhaseDecluster, "assemble-result", func(e *exec.Engine) error {
		// Result assembly, kept out of the projection phases.
		combined, err := e.AppendFields("result", lr.LeftRows, rr)
		exec.Return(e, lr.LeftRows.Data, rr.Data)
		if err != nil {
			return err
		}
		res.Rows, res.RowWidth = combined.Data, combined.Width
		return nil
	})
	return res.run(pl)
}

// nsmAffinitySeed is the placement-hash salt of an NSM query: the
// larger relation's record array — so concurrent queries over one
// relation home equal partitions (and scan chunks) on equal workers.
func nsmAffinitySeed(larger NSMSide) uint64 {
	return exec.AffinitySeed(larger.Rel.Data, larger.Rel.Len(), true)
}
