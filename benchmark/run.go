package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"
)

// env is what every run of one invocation shares.
type env struct {
	root      string // checkout root
	joinserve string // built cmd/joinserve binary
	decl      *benchmarkDecl
}

// runResult is one run: the contract's result object plus what the
// results files and -compare need to tell runs apart.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Untraced runs: the time metrics before steadying (see steadied),
	// and the box's speed around each timed slice.
	Raw      map[string]float64 `json:"-"`
	BoxSpeed []float64          `json:"-"`

	firstErr error
	probed   map[string]float64 // metrics that are probe medians, not query statistics
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Untimed parts of a run, all counted in queries rather than seconds
// so that set-up time measures work and not a fixed wait.
const (
	timedSetups = 3 // set-ups per untraced run; setup_s is their median
	warmQueries = 3 // per connection, after every shape's first, fully checked query
	timedSlices = 5 // passes the timed part of an untraced run is cut into
)

// Shares of --seconds a traced run spends on each of its passes; the
// in-process probes take a few more seconds on top.
const (
	tracedShare = 0.7   // traced pass, every response fully checked
	stepShare   = 0.075 // each step of the open-loop capacity probe
)

// traceSlice is how long span recording stays on, and then off, in
// the traced pass: several times the slowest workload's latency, and
// short against the seconds over which the box drifts.
const traceSlice = time.Second

// target is a started, warmed-up program under test and the doers
// that drive it.
type target struct {
	c     *child
	doers []doer
	setup setupTimes
}

func (t *target) stop() {
	for _, d := range t.doers {
		if h, ok := d.(*httpDoer); ok {
			h.close()
		}
	}
	t.c.stop()
}

// setUp spawns the program for w, waits until it is ready and warms it
// up: every distinct query shape once with the full check, then
// warmQueries more per connection. Lazily built images and encodings,
// the arena and the connections are warm afterwards.
func setUp(ctx context.Context, e *env, w *workloadSpec, seed uint64, oracles []*oracle) (*target, error) {
	t := &target{}
	var err error
	if w.lib {
		if t.c, err = startLib(ctx, w, seed); err != nil {
			return nil, err
		}
		t.doers = []doer{&libDoer{c: t.c, o: oracles[0]}}
	} else {
		if t.c, err = startServe(ctx, e.joinserve, w, seed); err != nil {
			return nil, err
		}
		conns := w.clients()
		if w.openRate > 0 {
			conns = w.openSenders()
		}
		// One expectation per pair, shared by its connections: the
		// first, sequential, fully checked query settles it before
		// anything runs concurrently.
		exps := make([]*expect, w.pairs)
		for p := range exps {
			exps[p] = newExpect(oracles[p], w.rowsStreamed(oracles[p].n))
		}
		for i := 0; i < conns; i++ {
			p := i % w.pairs
			d, err := newHTTPDoer(t.c.url, queryBody{
				Larger: fmt.Sprintf("larger%d", p), Smaller: fmt.Sprintf("smaller%d", p),
				Compression: w.compression, Limit: w.limit, OmitRows: w.omitRows,
			}, w.binary, exps[p])
			if err != nil {
				t.stop()
				return nil, err
			}
			t.doers = append(t.doers, d)
		}
	}
	t.setup.spawnReady = t.c.spawnReady

	start := time.Now()
	shapes := min(w.pairs, len(t.doers))
	for _, d := range t.doers[:shapes] {
		if s := d.do(true); !s.ok() {
			t.stop()
			return nil, fmt.Errorf("%s: first response failed its check: %w", w.name, s.err)
		}
	}
	// C callers at a time, as in the closed loops: an open loop's many
	// connections all at once would only trip the admission watermark.
	for i := 0; i < len(t.doers); i += w.clients() {
		warm := runClosed(ctx, t.doers[i:min(i+w.clients(), len(t.doers))], time.Hour, warmQueries, passOpts{})
		if err := warm.firstError(); err != nil {
			t.stop()
			return nil, fmt.Errorf("%s: warm-up query failed: %w", w.name, err)
		}
	}
	t.setup.warmup = time.Since(start)
	return t, nil
}

// runOne performs one run of one workload: with trace off, the timed
// pass and the end-to-end metrics; with trace on, the traced pass,
// the probes and the per-layer metrics.
func runOne(ctx context.Context, e *env, w *workloadSpec, seed uint64, seconds float64, trace bool) (*runResult, error) {
	dur := func(share float64) time.Duration { return time.Duration(share * seconds * float64(time.Second)) }
	passDur := dur(1)
	if trace {
		passDur = dur(tracedShare)
	}

	// Inputs: the oracle for each relation pair (joinserve seeds pair p
	// with seed+p) and, for an open loop, the arrival schedule.
	genStart := time.Now()
	oracles := make([]*oracle, w.pairs)
	for p := range oracles {
		var err error
		if oracles[p], err = newOracle(w.n, w.pi, seed+uint64(p)); err != nil {
			return nil, err
		}
	}
	// An untraced run times timedSlices passes one after the other, a
	// traced run one pass.
	sliceDur, slices := passDur, 1
	if !trace {
		sliceDur, slices = passDur/timedSlices, timedSlices
	}
	dues := make([][]time.Duration, slices)
	if w.openRate > 0 {
		for k := range dues {
			dues[k] = poissonSchedule(seed, uint64(k), w.openRate, sliceDur)
		}
	}
	genS := time.Since(genStart).Seconds()

	// The box's speed is read before and after everything that is
	// timed: each set-up and each slice of the timed pass.
	var t *target
	cal := newCalibrator(generatorThreads())
	cal.measure() // touches the arrays for the first time
	calMs := cal.measure()
	speedSince := func() float64 { // box speed over the interval since the last reading
		before := calMs
		calMs = cal.measure()
		return (before + calMs) / 2 / referenceCalMs
	}

	// Set-up, several times when it is the metric; the last one stays.
	setups := timedSetups
	if trace {
		setups = 1
	}
	var setupS, rawSetupS []float64
	for i := 0; i < setups; i++ {
		if t != nil {
			t.stop()
		}
		var err error
		if t, err = setUp(ctx, e, w, seed, oracles); err != nil {
			return nil, err
		}
		rawSetupS = append(rawSetupS, t.setup.total().Seconds())
		setupS = append(setupS, t.setup.total().Seconds()/speedSince())
	}
	defer t.stop() // the traced path stops it earlier; stopping twice is harmless

	load := func(d time.Duration, due []time.Duration, o passOpts) *pass {
		if w.openRate > 0 {
			return runOpen(ctx, t.doers, due, d, o)
		}
		return runClosed(ctx, t.doers, d, 0, o)
	}

	res := &runResult{Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace}
	var values map[string]float64
	var measured *pass
	if !trace {
		// The timed pass is cut into slices, each a pass of its own with
		// a reading of the child and of the box's speed on either side.
		stop := make(chan struct{})
		rss := t.c.sampleRSS(stop)
		first, err := t.c.snapshot()
		if err != nil {
			return nil, err
		}
		measured = &pass{}
		var timed []timedSlice
		before := first
		for k := 0; k < slices; k++ {
			p := load(sliceDur, dues[k], passOpts{})
			after, err := t.c.snapshot()
			if err != nil {
				return nil, err
			}
			timed = append(timed, timedSlice{values: endToEnd(w, p, before, after, nil, 0), speed: speedSince()})
			measured.samples = append(measured.samples, p.samples...)
			measured.window += p.window
			before = after
		}
		close(stop)
		// Shares, allocation and resident memory are taken over the
		// whole pass, so that no failure and no byte is left out; the
		// metrics that measure time are steadied.
		values = endToEnd(w, measured, first, before, <-rss, median(rawSetupS))
		res.Raw = map[string]float64{"setup_s": values["setup_s"]}
		values["setup_s"] = median(setupS)
		for name, v := range steadied(w, timed) {
			res.Raw[name], values[name] = values[name], v
		}
		for _, sl := range timed {
			res.BoxSpeed = append(res.BoxSpeed, sl.speed)
		}
	} else {
		in := layerInputs{setup: t.setup, genS: genS}
		var err error
		if in.before, err = t.c.snapshot(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		in.traced = load(passDur, dues[0], passOpts{full: true, traceSlice: traceSlice})
		if in.after, err = t.c.snapshot(); err != nil {
			return nil, err
		}
		in.boxSpeed = speedSince()
		if w.openRate > 0 {
			in.maxRate = maxRateWithinLimit(w, seed, dur(stepShare), load)
		}
		// The probes run in this process; the program under test is
		// stopped first so that they do not share the cores with it.
		t.stop()
		var probeSpans []span
		if in.probes, probeSpans, err = runProbes(w, seed, t0, defaultProbeSizes); err != nil {
			return nil, err
		}
		measured, res.probed = in.traced, in.probes
		values = perLayer(w, in)
		path := filepath.Join(e.root, "benchmark", "out", "trace_"+w.name+".json")
		if err := writeChromeTrace(path, w.name, append(measured.spans, probeSpans...)); err != nil {
			return nil, err
		}
	}

	res.Attempted = len(measured.samples)
	res.Failed = res.Attempted - measured.okCount()
	res.Correct = res.Failed == 0 && res.Attempted > 0
	res.firstErr = measured.firstError()
	res.Metrics = map[string]metric{}
	for _, m := range e.decl.metricsFor(trace) {
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared in BENCHMARK.json but not measured", m.Name)
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	return res, ctx.Err()
}

// maxRateWithinLimit is the open-loop capacity probe: one short
// untraced pass at each fixed rate, lowest first, stopping at the
// first rate the program does not sustain. A rate is sustained when
// no query fails, the 90th percentile from due time is within the
// workload's limit, and the answers did not run on past the schedule
// by more than that limit (no growing backlog).
func maxRateWithinLimit(w *workloadSpec, seed uint64, step time.Duration, load func(time.Duration, []time.Duration, passOpts) *pass) float64 {
	best := 0.0
	for i, rate := range rateSteps {
		p := load(step, poissonSchedule(seed, uint64(100+i), rate, step), passOpts{})
		failed, _ := p.shares(w.limitMs)
		if failed > 0 || percentile(p.latencies(), 0.9) > w.limitMs || ms(p.window-step) > w.limitMs {
			break
		}
		best = rate
	}
	return best
}
