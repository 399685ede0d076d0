package obs

// A minimal Prometheus-style metrics registry: counters, gauges and
// histograms with text exposition (the format every Prometheus-
// compatible scraper parses), with no external dependency. Two
// flavors of series:
//
//   - Pushed: Counter / CounterVec / Histogram, updated by
//     instrumentation sites (atomic adds, a short mutex for
//     histogram buckets).
//   - Pulled: CounterFunc / GaugeFunc, closures evaluated at scrape
//     time over counters the instrumented system already keeps — the
//     zero-hot-path-cost flavor the runtime prefers.
//
// Families render in registration order (stable scrapes diff
// cleanly); labeled children render sorted by label value.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds metric families and renders them in the Prometheus
// text exposition format.
type Registry struct {
	mu   sync.Mutex
	fams []*family
}

type family struct {
	name, help, typ string
	collect         func(w io.Writer)
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) add(f *family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, have := range r.fams {
		if have.name == f.name {
			panic("obs: duplicate metric " + f.name)
		}
	}
	r.fams = append(r.fams, f)
}

// WritePrometheus renders every family in the text exposition format.
// A nil registry renders nothing, so callers can pass through an
// unconfigured metrics surface without guarding.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	fams := make([]*family, len(r.fams))
	copy(fams, r.fams)
	r.mu.Unlock()
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		f.collect(w)
	}
}

// writeSample renders one sample line, formatting integral values
// without an exponent so counters read naturally.
func writeSample(w io.Writer, name, labels string, v float64) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatValue(v))
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// Counter is a monotonically increasing pushed metric.
type Counter struct {
	bits atomic.Uint64 // float64 bits
}

// Add increases the counter by v (v < 0 is ignored — counters are
// monotonic by contract).
func (c *Counter) Add(v float64) {
	if v < 0 {
		return
	}
	for {
		old := c.bits.Load()
		nu := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, nu) {
			return
		}
	}
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Counter registers and returns a pushed counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.add(&family{name: name, help: help, typ: "counter", collect: func(w io.Writer) {
		writeSample(w, name, "", c.Value())
	}})
	return c
}

// CounterFunc registers a pulled counter: fn is evaluated at scrape
// time and must be monotonically non-decreasing (e.g. a closure over
// an atomic counter the system already maintains).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.add(&family{name: name, help: help, typ: "counter", collect: func(w io.Writer) {
		writeSample(w, name, "", fn())
	}})
}

// FuncSeries is one labeled child of a pulled family: the label
// value and the function producing its sample at scrape time.
type FuncSeries struct {
	Label string
	Fn    func() float64
}

// CounterFuncs registers a pulled one-label counter family: each
// series' function is evaluated at scrape time and must be
// monotonically non-decreasing. The series render in the given order
// under a single HELP/TYPE header.
func (r *Registry) CounterFuncs(name, help, label string, series []FuncSeries) {
	r.add(&family{name: name, help: help, typ: "counter", collect: func(w io.Writer) {
		for _, s := range series {
			writeSample(w, name, fmt.Sprintf("{%s=%q}", label, s.Label), s.Fn())
		}
	}})
}

// GaugeFunc registers a pulled gauge evaluated at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.add(&family{name: name, help: help, typ: "gauge", collect: func(w io.Writer) {
		writeSample(w, name, "", fn())
	}})
}

// CounterVec is a family of pushed counters distinguished by the
// values of its labels.
type CounterVec struct {
	labels []string
	mu     sync.Mutex
	kids   map[string]*Counter // by label values, NUL-joined
}

// With returns the child counter for the given label values (one per
// label, in declaration order), creating it on first use. Children are
// cached; instrumentation sites should hold the *Counter rather than
// calling With per event when the label values are fixed.
func (v *CounterVec) With(values ...string) *Counter {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: %d label values for labels %v", len(values), v.labels))
	}
	key := strings.Join(values, "\x00")
	v.mu.Lock()
	defer v.mu.Unlock()
	c := v.kids[key]
	if c == nil {
		c = &Counter{}
		v.kids[key] = c
	}
	return c
}

// CounterVec registers a counter family with one or more labels.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{labels: labels, kids: map[string]*Counter{}}
	r.add(&family{name: name, help: help, typ: "counter", collect: func(w io.Writer) {
		v.mu.Lock()
		keys := make([]string, 0, len(v.kids))
		for key := range v.kids {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		kids := make([]*Counter, len(keys))
		for i, key := range keys {
			kids[i] = v.kids[key]
		}
		v.mu.Unlock()
		for i, key := range keys {
			pairs := strings.Split(key, "\x00")
			for j, val := range pairs {
				pairs[j] = fmt.Sprintf("%s=%q", v.labels[j], val)
			}
			writeSample(w, name, "{"+strings.Join(pairs, ",")+"}", kids[i].Value())
		}
	}})
	return v
}

// Histogram is a pushed distribution with fixed cumulative buckets.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf implicit
	mu     sync.Mutex
	counts []uint64 // per bound, non-cumulative; len(bounds)+1 with overflow last
	sum    float64
	n      uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.n++
	h.mu.Unlock()
}

// Histogram registers a histogram with the given ascending bucket
// upper bounds (the +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	sort.Float64s(bs)
	h := &Histogram{bounds: bs, counts: make([]uint64, len(bs)+1)}
	r.add(&family{name: name, help: help, typ: "histogram", collect: func(w io.Writer) {
		h.mu.Lock()
		counts := make([]uint64, len(h.counts))
		copy(counts, h.counts)
		sum, n := h.sum, h.n
		h.mu.Unlock()
		cum := uint64(0)
		for i, b := range h.bounds {
			cum += counts[i]
			writeSample(w, name+"_bucket", fmt.Sprintf("{le=%q}", formatValue(b)), float64(cum))
		}
		writeSample(w, name+"_bucket", `{le="+Inf"}`, float64(n))
		writeSample(w, name+"_sum", "", sum)
		writeSample(w, name+"_count", "", float64(n))
	}})
	return h
}

// ExpBuckets returns n ascending bucket bounds starting at start,
// each factor times the previous — the standard latency ladder.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// ParseSamples extracts the samples from a text exposition document:
// metric line -> value, keyed by the full series name including
// labels. It is the minimal parser the scrape tests need — not a
// general client.
func ParseSamples(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(line[sp+1:], "%g", &v); err != nil {
			continue
		}
		out[line[:sp]] = v
	}
	return out
}
