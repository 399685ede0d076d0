package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"time"

	rd "radixdecluster"

	"radixdecluster/internal/compress"
	"radixdecluster/internal/wire"
)

// probeSizes are the input sizes of the in-process probes.
type probeSizes struct {
	figureN   int // tuples per side of the Figure-10 plans
	operatorN int // tuples of the column-operator probes
}

// The Figure-10 plans run at the service workloads' shape; the
// operator probes run at 2 Mi tuples, where an 8 MB column is four
// times the reference box's L2. Tests pass smaller sizes.
var defaultProbeSizes = probeSizes{figureN: 1 << 20, operatorN: 2 << 20}

const (
	figurePi   = 2
	probeReps  = 3 // timed repetitions per probe, after one warm-up call
	chunkRows  = 8192
	mtuples    = 1e6
	probeTrack = 1 << 20 // span client id of the probe track
)

// prober times public functions in process, on inputs generated from
// the seed, and records each timed call as a span.
type prober struct {
	t0    time.Time
	spans []span
	out   map[string]float64
}

// time runs f once untimed and probeReps times timed, and returns the
// median duration in seconds.
func (p *prober) time(name string, f func() error) (float64, error) {
	if err := f(); err != nil {
		return 0, fmt.Errorf("probe %s: %w", name, err)
	}
	var secs []float64
	for i := 0; i < probeReps; i++ {
		start := time.Since(p.t0)
		if err := f(); err != nil {
			return 0, fmt.Errorf("probe %s: %w", name, err)
		}
		end := time.Since(p.t0)
		p.spans = append(p.spans, span{name: "probe." + name, qid: i, client: probeTrack, parent: -1, start: start, end: end})
		secs = append(secs, (end - start).Seconds())
	}
	return median(secs), nil
}

// rate times f and stores units/second under name.
func (p *prober) rate(name string, units float64, f func() error) error {
	s, err := p.time(name, f)
	p.out[name] = ratio(units, s)
	return err
}

var figurePlans = []struct {
	metric string
	st     rd.Strategy
}{
	{"strategy.dsm_post_decluster_ms", rd.DSMPostDecluster},
	{"strategy.dsm_pre_ms", rd.DSMPre},
	{"strategy.nsm_pre_hash_ms", rd.NSMPreHash},
	{"strategy.nsm_pre_phash_ms", rd.NSMPrePhash},
	{"strategy.nsm_post_decluster_ms", rd.NSMPostDecluster},
	{"strategy.nsm_post_jive_ms", rd.NSMPostJive},
}

// runProbes measures every probe-sourced per-layer metric. t0 is the
// origin of the span clock.
func runProbes(w *workloadSpec, seed uint64, t0 time.Time, sizes probeSizes) (map[string]float64, []span, error) {
	p := &prober{t0: t0, out: map[string]float64{}}

	// The workload's own shape: what joinserve builds per pair at
	// start-up, what the planner sees, and the compressed library run.
	start := time.Now()
	larger, smaller, err := buildPair(w.n, w.pi, seed, rd.WithCompression())
	if err != nil {
		return nil, nil, err
	}
	p.out["relation.build_s"] = time.Since(start).Seconds()
	own := joinQuery(larger, smaller, w.pi)
	own.Parallelism = rd.AutoParallelism
	if w.lib {
		own.Parallelism = 0
	}
	var plan *rd.Plan
	planS, err := p.time("strategy.plan_us_p50", func() error {
		for i := 0; i < 100; i++ {
			if plan, err = rd.PlanJoin(own); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	p.out["strategy.plan_us_p50"] = planS / 100 * 1e6
	p.out["costmodel.modeled_ms"] = plan.ModeledMs

	p.out["compress.decode_share"], p.out["compress.saved_mb_per_query"] = 0, 0
	if w.compression == "on" {
		own.Compression = rd.CompressionOn
		var shares, saved []float64
		if _, err := p.time("compress.decode_share", func() error {
			res, err := rd.ProjectJoin(own)
			if err != nil {
				return err
			}
			shares = append(shares, ratio(float64(res.Timing.DecodeTime), float64(res.Timing.Total)))
			saved = append(saved, float64(res.Timing.CompressedSavedBytes)/mb)
			return nil
		}); err != nil {
			return nil, nil, err
		}
		p.out["compress.decode_share"], p.out["compress.saved_mb_per_query"] = median(shares[1:]), median(saved[1:])
	}

	// The Figure-10 legend at one fixed shape, each plan's result
	// checked against the oracle.
	if w.n != sizes.figureN || w.pi != figurePi {
		if larger, smaller, err = buildPair(sizes.figureN, figurePi, seed, rd.WithCompression()); err != nil {
			return nil, nil, err
		}
	}
	o, err := newOracle(sizes.figureN, figurePi, seed)
	if err != nil {
		return nil, nil, err
	}
	fig := joinQuery(larger, smaller, figurePi)
	fig.Parallelism = rd.AutoParallelism
	var result *rd.Result
	for _, fp := range figurePlans {
		fig.Strategy = fp.st
		s, err := p.time(fp.metric, func() error {
			if result, err = rd.ProjectJoin(fig); err != nil {
				return err
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		p.out[fp.metric] = s * 1e3
		if err := checkResult(result, o); err != nil {
			return nil, nil, fmt.Errorf("probe %s: %w", fp.metric, err)
		}
	}
	keys, err := larger.Column("key")
	if err != nil {
		return nil, nil, err
	}
	if err := p.compressProbes(keys); err != nil {
		return nil, nil, err
	}
	if err := p.wireProbes(result); err != nil {
		return nil, nil, err
	}
	if err := p.operatorProbes(seed, sizes.operatorN); err != nil {
		return nil, nil, err
	}
	return p.out, p.spans, nil
}

// checkResult walks a library result in full against the oracle.
func checkResult(res *rd.Result, o *oracle) error {
	var rep libReply
	if err := walkResult(res, make([]int32, 2*o.pi), 1, o, &rep); err != nil {
		return err
	}
	if res.N != o.n || rep.Rows != o.n || rep.Sum != o.sum {
		return fmt.Errorf("result of %d rows with checksum %#x, oracle has %d with %#x", rep.Rows, rep.Sum, o.n, o.sum)
	}
	return nil
}

// compressProbes times the block codec on a join-key column.
func (p *prober) compressProbes(keys []int32) error {
	rawMB := float64(4*len(keys)) / mb
	var enc *compress.Encoded
	err := p.rate("compress.encode_mb_per_s", rawMB, func() (err error) {
		enc, err = compress.EncodeBest(keys)
		return err
	})
	if err != nil {
		return err
	}
	p.out["compress.ratio_key"] = enc.Ratio()
	dst := make([]int32, len(keys))
	if err := p.rate("compress.decode_mb_per_s", rawMB, func() error {
		return enc.DecompressRangeInto(dst, 0, len(dst))
	}); err != nil {
		return err
	}
	for i := range keys {
		if dst[i] != keys[i] {
			return fmt.Errorf("probe compress: value %d decodes to %d, want %d", i, dst[i], keys[i])
		}
	}
	return nil
}

// wireProbes times the frame writer, raw and with frame compression,
// and the decoder, over one result in the server's row bands.
func (p *prober) wireProbes(res *rd.Result) error {
	rawMB := float64(4*res.N*len(res.Cols)) / mb
	encode := func(dst io.Writer, comp wire.Compression) error {
		bw := wire.NewWriter(dst, nil, comp)
		if err := bw.WriteHeader(wire.Header{N: res.N, Names: res.Names}); err != nil {
			return err
		}
		for lo := 0; lo < res.N; lo += chunkRows {
			hi := min(lo+chunkRows, res.N)
			for c := range res.Cols {
				if err := bw.WriteColumn(c, lo, res.Cols[c][lo:hi]); err != nil {
					return err
				}
			}
		}
		return bw.WriteFooter(wire.Footer{RowsStreamed: res.N})
	}
	var raw, auto bytes.Buffer
	if err := p.rate("wire.encode_raw_mb_per_s", rawMB, func() error { raw.Reset(); return encode(&raw, wire.CompressOff) }); err != nil {
		return err
	}
	if err := p.rate("wire.encode_auto_mb_per_s", rawMB, func() error { auto.Reset(); return encode(&auto, wire.CompressAuto) }); err != nil {
		return err
	}
	p.out["wire.auto_ratio"] = ratio(float64(auto.Len()), float64(raw.Len()))
	var dec *wire.Decoded
	if err := p.rate("wire.decode_mb_per_s", rawMB, func() (err error) {
		dec, err = wire.Decode(bytes.NewReader(raw.Bytes()))
		return err
	}); err != nil {
		return err
	}
	for c := range res.Cols {
		if !equalInt32(dec.Cols[c], res.Cols[c]) {
			return fmt.Errorf("probe wire: column %d does not round-trip", c)
		}
	}
	return nil
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// operatorProbes times the paper's column operators on a seeded
// permutation standing in for one side of a join-index.
func (p *prober) operatorProbes(seed uint64, n int) error {
	rng := rand.New(rand.NewPCG(seed, 0x09e7a705))
	oids := make([]rd.OID, n)
	col := make([]int32, n)
	for i := range oids {
		oids[i] = rd.OID(i)
		col[i] = int32(i) * 3
	}
	rng.Shuffle(n, func(i, j int) { oids[i], oids[j] = oids[j], oids[i] })
	h := rd.Pentium4()
	bits, ignore := rd.PlanClusterBits(h, n, 4)

	var cl *rd.Clustered
	if err := p.rate("radix.cluster_mtuples_per_s", float64(n)/mtuples, func() (err error) {
		cl, err = rd.ClusterOIDs(oids, bits, ignore)
		return err
	}); err != nil {
		return err
	}
	payload := make([]rd.OID, n)
	if err := p.rate("radix.sort_mtuples_per_s", float64(n)/mtuples, func() error {
		sortedOIDs, _, err := rd.SortOIDs(oids, payload, h)
		if err == nil && (sortedOIDs[0] != 0 || int(sortedOIDs[n-1]) != n-1) {
			err = fmt.Errorf("sorted oids run %d..%d", sortedOIDs[0], sortedOIDs[n-1])
		}
		return err
	}); err != nil {
		return err
	}
	var clustered, random []int32
	if err := p.rate("posjoin.fetch_clustered_mtuples_per_s", float64(n)/mtuples, func() (err error) {
		clustered, err = rd.Fetch(col, cl.OIDs)
		return err
	}); err != nil {
		return err
	}
	if err := p.rate("posjoin.fetch_random_mtuples_per_s", float64(n)/mtuples, func() (err error) {
		random, err = rd.Fetch(col, oids)
		return err
	}); err != nil {
		return err
	}
	window := rd.PlanWindowTuples(h, 4)
	var restored []int32
	if err := p.rate("core.decluster_mtuples_per_s", float64(n)/mtuples, func() (err error) {
		restored, err = rd.Decluster(clustered, cl.ResultPos, cl.Clusters, window)
		return err
	}); err != nil {
		return err
	}
	// Clustered fetch followed by Radix-Decluster must equal the
	// random fetch: the paper's central equivalence.
	if !equalInt32(restored, random) {
		return fmt.Errorf("probe core.decluster: declustered column differs from the direct fetch")
	}
	return nil
}
