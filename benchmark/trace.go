package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one interval of a traced query (or one probe call). Spans of
// one query share qid; parent is the index of the enclosing span in
// the same list, -1 at the root.
type span struct {
	name       string
	qid        int
	client     int
	parent     int
	start, end time.Duration // from the start of the traced pass
}

// querySpans rebuilds one query's span tree from its sample:
//
//	query
//	  client.lateness        open loop: due -> first send
//	  client.retry           first send -> answered send, after 429s
//	  send_to_first_byte
//	    server.overhead      first byte minus the engine's own total
//	    engine.total         the footer's totalMs
//	      engine.<phase>...  one per footer phase, queue included
//	  body
//	    server.stream        reading the body off the socket
//	    client.decode
//	    client.verify
//
// The client-side spans are measured. The server-side ones are
// synthesized from the footer the program already sends: their
// durations are the program's, their placement inside
// send_to_first_byte is assumed (overhead first, then the engine,
// phases back to back in pipeline order).
func querySpans(dst []span, qid, client int, s *sample) []span {
	add := func(name string, parent int, start, dur time.Duration) int {
		dst = append(dst, span{name: name, qid: qid, client: client, parent: parent, start: start, end: start + dur})
		return len(dst) - 1
	}
	sent := s.due + s.lateness + s.retry
	root := add("query", -1, s.due, s.total)
	if s.lateness > 0 {
		add("client.lateness", root, s.due, s.lateness)
	}
	if s.retry > 0 {
		add("client.retry", root, s.due+s.lateness, s.retry)
	}
	fb := add("send_to_first_byte", root, sent, s.firstByte)
	engine := min(msDur(s.timing.TotalMs), s.firstByte)
	add("server.overhead", fb, sent, s.firstByte-engine)
	eng := add("engine.total", fb, sent+s.firstByte-engine, engine)
	at := sent + s.firstByte - engine
	for _, ph := range phases(s.timing) {
		d := min(msDur(ph.ms), sent+s.firstByte-at)
		if d > 0 {
			add("engine."+ph.name, eng, at, d)
			at += d
		}
	}
	bodyStart := sent + s.firstByte
	body := add("body", root, bodyStart, s.read+s.decode+s.verify)
	add("server.stream", body, bodyStart, s.read)
	add("client.decode", body, bodyStart+s.read, s.decode)
	add("client.verify", body, bodyStart+s.read+s.decode, s.verify)
	return dst
}

func msDur(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }

// selfTimes returns each span's duration minus the part of it its
// direct children cover. Children of one parent never overlap here, so
// that part is the sum of their durations.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// writeChromeTrace writes spans as Chrome trace-event JSON (load it in
// Perfetto or chrome://tracing): one complete event per span, one
// thread track per client, the query id and self time in args.
func writeChromeTrace(path, process string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args,omitempty"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := []event{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": process}}}
	self := selfTimes(spans)
	for i, s := range spans {
		events = append(events, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.client, Ts: us(s.start), Dur: us(s.end - s.start),
			Args: map[string]any{"qid": s.qid, "self_us": us(self[i])},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
