package main

import (
	"time"

	"radixdecluster/internal/wire"
)

// mb is the MB of every *_mb metric: 2^20 bytes.
const mb = 1 << 20

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// phase is one entry of the program's own timing report.
type phase struct {
	name string
	ms   float64
}

// phases lists a footer's phases in pipeline order, queue wait first.
func phases(t wire.Timing) []phase {
	return []phase{
		{"queue", t.QueueMs}, {"scan", t.ScanMs}, {"join", t.JoinMs}, {"reorder", t.ReorderJIMs},
		{"project_larger", t.ProjectLargerMs}, {"project_smaller", t.ProjectSmallerMs}, {"decluster", t.DeclusterMs},
	}
}

// column collects f over the pass's correct queries.
func (p *pass) column(f func(*sample) float64) []float64 {
	out := make([]float64, 0, len(p.samples))
	for i := range p.samples {
		if p.samples[i].ok() {
			out = append(out, f(&p.samples[i]))
		}
	}
	return out
}

func (p *pass) latencies() []float64 {
	return p.column(func(s *sample) float64 { return ms(s.total) })
}

// latenciesTraced is latencies restricted to the queries whose spans
// were recorded, or to the others.
func (p *pass) latenciesTraced(traced bool) []float64 {
	var out []float64
	for i := range p.samples {
		if s := &p.samples[i]; s.ok() && s.traced == traced {
			out = append(out, ms(s.total))
		}
	}
	return out
}

// shares returns the pass's failed share and the share of attempted
// queries that failed or took longer than limitMs.
func (p *pass) shares(limitMs float64) (failed, missed float64) {
	var nFailed, nMissed int
	for i := range p.samples {
		s := &p.samples[i]
		if !s.ok() {
			nFailed++
		}
		if !s.ok() || ms(s.total) > limitMs {
			nMissed++
		}
	}
	n := float64(len(p.samples))
	return ratio(float64(nFailed), n), ratio(float64(nMissed), n)
}

// endToEnd computes the metrics a user of the system would see, from
// the untraced timed pass and the outside readings around it.
func endToEnd(w *workloadSpec, p *pass, before, after counters, rssMB []float64, setupS float64) map[string]float64 {
	lat := p.latencies()
	ok := float64(len(lat))
	failed, missed := p.shares(w.limitMs)
	return map[string]float64{
		"query_ms_p50":  percentile(lat, 0.5),
		"query_ms_p90":  percentile(lat, 0.9),
		"queries_per_s": ratio(ok, p.window.Seconds()),
		// The complements of failed_share and slo_miss_share: a bound is
		// a share of the median, and those medians are zero.
		"ok_share":           1 - failed,
		"within_limit_share": 1 - missed,
		"cpu_ms_per_query":   ratio(after.cpuMs-before.cpuMs, ok),
		"alloc_mb_per_query": ratio(float64(after.heap.TotalAlloc-before.heap.TotalAlloc)/mb, ok),
		"rss_mb_p50":         median(rssMB),
		"setup_s":            setupS,
	}
}

// timedSlice is one slice of an untraced run's timed pass: its own
// end-to-end metrics and the box's speed while it ran, as the ratio
// of the calibrations on either side of it to the reference (above 1:
// the box was slower than the reference).
type timedSlice struct {
	values map[string]float64
	speed  float64
}

// timeMetrics are the end-to-end metrics that measure time, and
// whether more is better. These are the ones a busy neighbour on the
// shared host moves, and they are steadied against it in two ways.
var timeMetrics = map[string]bool{
	"query_ms_p50": false, "query_ms_p90": false, "cpu_ms_per_query": false, "queries_per_s": true,
}

// steadied reduces the slices of a timed pass to one value per time
// metric. Each slice's value is first put at the reference box speed:
// a time is divided by the slice's speed ratio, a closed loop's
// throughput multiplied by it (an open loop's throughput is its
// schedule's and is left alone). Then the quartile on the good side
// is taken over the slices, the second best of five: whatever else
// disturbs a slice, a stall of the virtual machine or a late timer,
// only ever makes it slower, so the better slices are the ones that
// measured the program, while a change to the program moves all of
// them.
func steadied(w *workloadSpec, slices []timedSlice) map[string]float64 {
	out := map[string]float64{}
	for name, higherIsBetter := range timeMetrics {
		vs := make([]float64, len(slices))
		for i, sl := range slices {
			switch {
			case !higherIsBetter:
				vs[i] = sl.values[name] / sl.speed
			case w.openRate == 0:
				vs[i] = sl.values[name] * sl.speed
			default:
				vs[i] = sl.values[name]
			}
		}
		if higherIsBetter {
			out[name] = percentile(vs, 0.75)
		} else {
			out[name] = percentile(vs, 0.25)
		}
	}
	return out
}

// setupTimes decomposes one set-up of the program.
type setupTimes struct {
	spawnReady, warmup time.Duration
}

func (s setupTimes) total() time.Duration { return s.spawnReady + s.warmup }

// layerInputs is everything the per-layer ledger is computed from.
type layerInputs struct {
	traced        *pass    // the traced pass
	before, after counters // around it
	setup         setupTimes
	genS          float64 // generating inputs, oracle and schedule
	maxRate       float64 // open-loop capacity probe; 0 for a closed loop
	boxSpeed      float64 // calibrations around the traced pass / reference
	probes        map[string]float64
}

// perLayer computes the ledger: every layer measured from outside, by
// client spans, the footer the program sends, /v1/status and heap
// deltas, and the in-process probes.
func perLayer(w *workloadSpec, in layerInputs) map[string]float64 {
	p := in.traced
	lat := p.latencies()
	ok := float64(len(lat))
	failed, missed := p.shares(w.limitMs)
	p50 := func(f func(*sample) float64) float64 { return percentile(p.column(f), 0.5) }
	perQuery := func(delta int64) float64 { return ratio(float64(delta), ok) }

	out := map[string]float64{
		"client.first_byte_ms_p50":         p50(func(s *sample) float64 { return ms(s.firstByte) }),
		"client.body_ms_p50":               p50(func(s *sample) float64 { return ms(s.read + s.decode + s.verify) }),
		"client.decode_ms_p50":             p50(func(s *sample) float64 { return ms(s.decode) }),
		"client.verify_ms_p50":             p50(func(s *sample) float64 { return ms(s.verify) }),
		"client.lateness_ms_p90":           percentile(p.column(func(s *sample) float64 { return ms(s.lateness) }), 0.9),
		"client.query_ms_p99":              percentile(lat, 0.99),
		"client.max_rate_within_limit_qps": in.maxRate,
		"client.failed_share":              failed,
		"client.slo_miss_share":            missed,

		"strategy.scan_ms_p50":            p50(func(s *sample) float64 { return s.timing.ScanMs }),
		"strategy.join_ms_p50":            p50(func(s *sample) float64 { return s.timing.JoinMs }),
		"strategy.reorder_ms_p50":         p50(func(s *sample) float64 { return s.timing.ReorderJIMs }),
		"strategy.project_larger_ms_p50":  p50(func(s *sample) float64 { return s.timing.ProjectLargerMs }),
		"strategy.project_smaller_ms_p50": p50(func(s *sample) float64 { return s.timing.ProjectSmallerMs }),
		"strategy.decluster_ms_p50":       p50(func(s *sample) float64 { return s.timing.DeclusterMs }),
		"strategy.total_ms_p50":           p50(func(s *sample) float64 { return s.timing.TotalMs }),
		"exec.queue_ms_p50":               p50(func(s *sample) float64 { return s.timing.QueueMs }),

		"peak_rss_mb":            in.after.hwmMB,
		"heap.mallocs_per_query": perQuery(int64(in.after.heap.Mallocs - in.before.heap.Mallocs)),
		"gc.cycles_per_query":    perQuery(int64(in.after.heap.NumGC - in.before.heap.NumGC)),
		"gc.pause_ms_per_query":  ratio(in.after.heap.pauseSince(in.before.heap)/1e6, ok),

		"setup.spawn_ready_s": in.setup.spawnReady.Seconds(),
		"setup.warmup_s":      in.setup.warmup.Seconds(),
		"workload.gen_s":      in.genS,

		"bench.trace_overhead_ratio": ratio(median(p.latenciesTraced(true)), median(p.latenciesTraced(false))),
		// The per-layer times are as measured; this says how fast the box
		// was while they were.
		"bench.box_speed_ratio": in.boxSpeed,
	}

	// The server's layers, from /v1/status deltas and client spans;
	// all zero for the library child, which has no server.
	a, b := in.after.status, in.before.status
	sched := a.Sched.Sub(b.Sched)
	hits, misses := a.MemPool.Hits-b.MemPool.Hits, a.MemPool.Misses-b.MemPool.Misses
	var bodyBytes, readS float64
	for _, v := range p.column(func(s *sample) float64 { return float64(s.bytes) }) {
		bodyBytes += v
	}
	for _, v := range p.column(func(s *sample) float64 { return s.read.Seconds() }) {
		readS += v
	}
	out["server.overhead_ms_p50"] = 0
	out["server.stream_ms_p50"] = 0
	out["server.stream_mb_per_s"] = 0
	if !w.lib {
		out["server.overhead_ms_p50"] = p50(func(s *sample) float64 { return ms(s.firstByte) - s.timing.TotalMs })
		out["server.stream_ms_p50"] = p50(func(s *sample) float64 { return ms(s.read) })
		out["server.stream_mb_per_s"] = ratio(bodyBytes/mb, readS)
	}
	out["server.batch_riders_per_query"] = perQuery(a.Server.BatchedQueries - b.Server.BatchedQueries)
	out["server.rejected_429"] = float64(a.Server.Rejected429 - b.Server.Rejected429)
	out["exec.local_hit_rate"] = sched.LocalHitRate()
	out["exec.steals_per_query"] = perQuery(sched.Steals())
	out["exec.shared_scan_hits_per_query"] = perQuery(a.SharedScanHits - b.SharedScanHits)
	out["mempool.hit_rate"] = ratio(float64(hits), float64(hits+misses))
	out["mempool.held_mb"] = float64(a.MemPool.HeldBytes) / mb
	out["wire.frames_per_query"] = perQuery(a.Server.WireFrames - b.Server.WireFrames)
	out["wire.bytes_per_query"] = perQuery(a.Server.WireBytes-b.Server.WireBytes) / mb

	// Probes, and the model's prediction against this workload's own
	// measured engine time.
	for name, v := range in.probes {
		out[name] = v
	}
	out["costmodel.modeled_over_measured"] = ratio(out["costmodel.modeled_ms"], out["strategy.total_ms_p50"])
	delete(out, "costmodel.modeled_ms")

	// The ledger must add up: the medians of the parts against the
	// median of the whole.
	parts := p50(func(s *sample) float64 { return ms(s.lateness + s.retry) }) +
		out["server.overhead_ms_p50"] + out["strategy.total_ms_p50"] + out["server.stream_ms_p50"] +
		out["client.decode_ms_p50"] + out["client.verify_ms_p50"]
	out["bench.ledger_residual_share"] = ratio(percentile(lat, 0.5)-parts, percentile(lat, 0.5))
	return out
}
