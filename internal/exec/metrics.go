package exec

// Prometheus-style metrics, kept by every Runtime. The series split
// into two flavors, chosen so that keeping them changes nothing on the
// morsel hot path:
//
//   - Pull-based (CounterFunc/GaugeFunc): evaluated only at scrape
//     time over the atomics and mutex-guarded state the runtime
//     maintains regardless — scheduler counters, admission state.
//   - Push-based: the admission-wait histogram (one Observe per
//     admission, an event that already costs a mutex round-trip) and
//     the per-phase seconds counters (one Add per phase, a handful
//     per query).

import "radixdecluster/internal/obs"

// rtMetrics bundles the runtime's registry with its pushed handles.
type rtMetrics struct {
	reg           *obs.Registry
	queriesTotal  *obs.Counter
	admissionWait *obs.Histogram
	phaseSeconds  *obs.CounterVec
	plans         *obs.CounterVec
}

// newRTMetrics builds the registry for rt. The pull-based series
// close over rt; they are safe to evaluate at any time, including
// while queries run.
func newRTMetrics(rt *Runtime) *rtMetrics {
	reg := obs.NewRegistry()
	m := &rtMetrics{reg: reg}

	reg.GaugeFunc("radixdecluster_workers",
		"Size of the shared worker pool.",
		func() float64 { return float64(rt.Workers()) })
	reg.GaugeFunc("radixdecluster_active_queries",
		"Pipelines currently admitted and executing.",
		func() float64 { return float64(rt.ActiveQueries()) })
	reg.GaugeFunc("radixdecluster_admission_queue_depth",
		"Pipelines waiting in the FIFO admission queue.",
		func() float64 { return float64(rt.QueuedQueries()) })
	m.queriesTotal = reg.Counter("radixdecluster_queries_total",
		"Pipelines that have requested admission since the runtime started.")
	m.admissionWait = reg.Histogram("radixdecluster_admission_wait_seconds",
		"Time pipelines spent waiting for admission control.",
		obs.ExpBuckets(1e-6, 4, 12))
	reg.CounterFuncs("radixdecluster_morsels_total",
		"Morsels scheduled, by placement outcome (run by the home worker or stolen).",
		"placement", []obs.FuncSeries{
			{Label: "local", Fn: func() float64 { return float64(rt.SchedStats().LocalHits) }},
			{Label: "stolen", Fn: func() float64 { return float64(rt.SchedStats().Stolen) }},
		})
	reg.CounterFunc("radixdecluster_compressed_saved_bytes_total",
		"Raw bytes pipelines avoided moving by executing over block-compressed columns.",
		func() float64 { return float64(rt.CompressedSavedBytes()) })
	reg.CounterFunc("radixdecluster_compressed_decode_seconds_total",
		"Seconds pipelines spent in block-decode loops, summed over the workers' decode loops (not wall time).",
		func() float64 { return float64(rt.CompressedDecodeNanos()) / 1e9 })
	m.phaseSeconds = reg.CounterVec("radixdecluster_phase_seconds_total",
		"Wall-clock seconds spent executing pipeline phases, by phase kind.",
		"phase")
	m.plans = reg.CounterVec("radixdecluster_plans_total",
		"Pipelines executed, by strategy and planned per-side projection methods (u/u, c/u, c/d, ...): the Figure-10c switch as the fleet throws it.",
		"strategy", "methods")
	reg.CounterFuncs("radixdecluster_mempool_requests_total",
		"Arena buffer requests, by whether a recycled buffer satisfied them.",
		"outcome", []obs.FuncSeries{
			{Label: "hit", Fn: func() float64 { return float64(rt.MemStats().Hits) }},
			{Label: "miss", Fn: func() float64 { return float64(rt.MemStats().Misses) }},
		})
	reg.CounterFunc("radixdecluster_mempool_trims_total",
		"Buffers dropped to the GC because the arena was over its size limit.",
		func() float64 { return float64(rt.MemStats().Trims) })
	reg.GaugeFunc("radixdecluster_mempool_held_bytes",
		"Bytes of recycled buffers currently idle in the arena's kits.",
		func() float64 { return float64(rt.MemStats().HeldBytes) })
	reg.GaugeFunc("radixdecluster_mempool_hit_rate",
		"Lifetime arena hit rate — fraction of buffer requests served by recycling.",
		func() float64 { return rt.MemStats().HitRate() })
	return m
}

// CountPlan records one execution of a plan with the given per-side
// methods under the engine's query tag (the strategy name) in the
// runtime's radixdecluster_plans_total family. A no-op on the serial
// engine.
func (e *Engine) CountPlan(methods string) {
	if e.rt != nil {
		e.rt.metrics.plans.With(e.queryTag, methods).Inc()
	}
}
