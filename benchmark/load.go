package main

import (
	"context"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// pass is one load interval: every attempted query with the client
// that sent it, and how long the interval really was.
type pass struct {
	samples []sample
	spans   []span        // span trees of the samples, when traced
	window  time.Duration // start -> last completion
}

// passOpts says how a pass treats each query: full adds the per-row
// closed-form check; traceSlice > 0 cuts the pass into slices of that
// length and records a span tree for every query that starts in an
// even-numbered one. The odd slices are the untraced reference of
// bench.trace_overhead_ratio: alternating within one pass, rather than
// comparing two passes, keeps the box's drift out of the ratio.
type passOpts struct {
	full       bool
	traceSlice time.Duration
}

// clientLog is what one client goroutine keeps, so that recording
// takes no lock.
type clientLog struct {
	samples []sample
	spans   []span
}

func (l *clientLog) record(client int, s sample, o passOpts) {
	if o.traceSlice > 0 && (s.due/o.traceSlice)%2 == 0 {
		s.traced = true
		l.spans = querySpans(l.spans, client<<24|len(l.samples), client, &s)
	}
	l.samples = append(l.samples, s)
}

func (p *pass) okCount() int {
	n := 0
	for i := range p.samples {
		if p.samples[i].ok() {
			n++
		}
	}
	return n
}

func (p *pass) firstError() error {
	for i := range p.samples {
		if err := p.samples[i].err; err != nil {
			return err
		}
	}
	return nil
}

// gather merges the per-client logs; span parents are re-based onto
// the merged list.
func gather(t0 time.Time, logs []clientLog) *pass {
	p := &pass{window: time.Since(t0)}
	for _, l := range logs {
		p.samples = append(p.samples, l.samples...)
		base := len(p.spans)
		for _, sp := range l.spans {
			if sp.parent >= 0 {
				sp.parent += base
			}
			p.spans = append(p.spans, sp)
		}
	}
	return p
}

// runClosed is the closed loop: each doer is one caller that sends its
// next query as soon as the previous answer is verified, until dur
// has passed or, when perCaller > 0, it has sent that many. Queries in
// flight at the deadline complete and count. Cancelling ctx ends the
// pass after the queries in flight.
func runClosed(ctx context.Context, doers []doer, dur time.Duration, perCaller int, o passOpts) *pass {
	logs := make([]clientLog, len(doers))
	t0 := time.Now()
	var wg sync.WaitGroup
	for c, d := range doers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				start := time.Since(t0)
				if start >= dur || (perCaller > 0 && len(logs[c].samples) == perCaller) || ctx.Err() != nil {
					return
				}
				s := d.do(o.full)
				s.due = start
				logs[c].record(c, s, o)
				if !s.ok() {
					// A dead program fails queries in microseconds; do
					// not fill memory with them until the deadline.
					time.Sleep(10 * time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()
	return gather(t0, logs)
}

// poissonSchedule returns the due times, as offsets from the start of
// the pass, of a Poisson arrival process of the given rate over dur,
// conditioned on its expected count: round(rate*dur) arrivals placed
// independently and uniformly, sorted. Conditioning keeps the offered
// load the same for every seed, so only the arrival pattern varies.
// stream tells the schedules of one seed apart: the slices of a timed
// pass and the steps of the capacity probe each draw their own.
func poissonSchedule(seed, stream uint64, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, 0xa881ba15+stream))
	due := make([]time.Duration, int(rate*dur.Seconds()+0.5))
	for i := range due {
		due[i] = time.Duration(rng.Float64() * float64(dur))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	return due
}

// runOpen is the open loop: queries fall due at precomputed absolute
// times whatever the program is doing. Idle senders each claim the
// next arrival and sleep until it is due, so a stalled response delays
// nobody as long as a sender is free, and when none is, the wait
// shows: latency is counted from the due time, and how late each
// query was sent is recorded. Cancelling ctx drops the arrivals not yet
// claimed.
func runOpen(ctx context.Context, senders []doer, due []time.Duration, dur time.Duration, o passOpts) *pass {
	logs := make([]clientLog, len(senders))
	var next atomic.Int64
	t0 := time.Now()
	var wg sync.WaitGroup
	for c, d := range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(due) || ctx.Err() != nil {
					return
				}
				late := waitUntil(t0, due[i])
				s := d.do(o.full)
				s.due, s.lateness = due[i], late
				s.total += late
				logs[c].record(c, s, o)
			}
		}()
	}
	wg.Wait()
	p := gather(t0, logs)
	p.window = max(p.window, dur) // the schedule's span, unless answers ran past it
	return p
}

// waitUntil blocks until t0+due and returns how late it came back. A
// Go timer on an idle thread fires up to a millisecond late, which is
// a tenth of the small workload's latency, so the wait sleeps to one
// millisecond short of the due time and yields in a loop from there.
func waitUntil(t0 time.Time, due time.Duration) time.Duration {
	time.Sleep(due - time.Millisecond - time.Since(t0))
	for time.Since(t0) < due {
		runtime.Gosched()
	}
	return time.Since(t0) - due
}
