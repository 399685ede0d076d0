package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	rd "radixdecluster"

	"radixdecluster/internal/wire"
	"radixdecluster/internal/workload"
)

// libReply is the library child's answer to one "run" request, in two
// lines: the first as soon as ProjectJoin returns (N, Timing, Err),
// the second, complete, after the child has walked the result. The
// caller's clock between the two is the verify span, as it is for a
// joinserve client.
type libReply struct {
	N      int         `json:"n"`
	Rows   int         `json:"rows"` // rows the child checked
	Sum    uint64      `json:"sum"`  // their order-insensitive checksum
	Timing wire.Timing `json:"timing"`
	Err    string      `json:"err,omitempty"`
}

// buildPair generates one seeded relation pair the way cmd/joinserve
// does and wraps it as public relations named larger0/smaller0.
func buildPair(n, pi int, seed uint64, opts ...rd.RelationOption) (larger, smaller *rd.Relation, err error) {
	pr, err := workload.GenPair(workload.Params{
		N: n, Omega: pi + 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: seed,
	})
	if err != nil {
		return nil, nil, err
	}
	rels := make([]*rd.Relation, 2)
	for i, wr := range []*workload.Relation{pr.Larger, pr.Smaller} {
		cols := []rd.Column{{Name: "key", Values: wr.Key()}}
		for j := 1; j <= pi; j++ {
			cols = append(cols, rd.Column{Name: fmt.Sprintf("a%d", j), Values: wr.PayloadCol(j)})
		}
		if rels[i], err = rd.NewRelationOpts([]string{"larger0", "smaller0"}[i], cols, opts...); err != nil {
			return nil, nil, err
		}
	}
	return rels[0], rels[1], nil
}

// payloadNames is a1..a{pi}.
func payloadNames(pi int) []string {
	out := make([]string, pi)
	for j := range out {
		out[j] = fmt.Sprintf("a%d", j+1)
	}
	return out
}

func joinQuery(larger, smaller *rd.Relation, pi int) rd.JoinQuery {
	return rd.JoinQuery{
		Larger: larger, Smaller: smaller, LargerKey: "key", SmallerKey: "key",
		LargerProject: payloadNames(pi), SmallerProject: payloadNames(pi),
	}
}

func toWireTiming(t rd.Timing) wire.Timing {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return wire.Timing{
		ScanMs: ms(t.Scan), JoinMs: ms(t.Join), ReorderJIMs: ms(t.ReorderJI),
		ProjectLargerMs: ms(t.ProjectLarger), ProjectSmallerMs: ms(t.ProjectSmaller),
		DeclusterMs: ms(t.Decluster), QueueMs: ms(t.Queue), TotalMs: ms(t.Total),
	}
}

// libSampleStride is the row stride of the library child's check on
// timed responses. The child's CPU time is a metric, so the result
// walk that joinserve's clients do in the generator process is here
// thinned to a sample; "run full" walks every row.
const libSampleStride = 257

// libChildMain is the -child lib mode: the paper-mode program under
// test. It builds one relation pair, announces "ready", and then
// answers request lines on stdin until stdin closes:
//
//	run       ProjectJoin (DSM post-projection, serial, uncompressed);
//	          rows sampled at libSampleStride are checked
//	run full  the same, every row checked
//	stats     runtime.MemStats fields
func libChildMain(n, pi int, seed uint64) error {
	larger, smaller, err := buildPair(n, pi, seed)
	if err != nil {
		return err
	}
	o, err := newOracle(n, pi, seed)
	if err != nil {
		return err
	}
	q := joinQuery(larger, smaller, pi)
	q.Strategy = rd.DSMPostDecluster
	q.Parallelism = 0
	q.Compression = rd.CompressionOff

	out := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(out)
	reply := func(v any) error {
		if err := enc.Encode(v); err != nil {
			return err
		}
		return out.Flush()
	}
	if err := reply(map[string]bool{"ready": true}); err != nil {
		return err
	}
	in := bufio.NewScanner(os.Stdin)
	row := make([]int32, 2*pi)
	for in.Scan() {
		switch req := in.Text(); req {
		case "stats":
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			err = reply(heapStats{TotalAlloc: m.TotalAlloc, Mallocs: m.Mallocs, NumGC: m.NumGC, PauseNs: m.PauseNs[:]})
		case "run", "run full":
			var rep libReply
			res, qerr := rd.ProjectJoin(q)
			if qerr != nil {
				rep.Err = qerr.Error()
				if err = reply(rep); err == nil {
					err = reply(rep)
				}
				break
			}
			rep.N, rep.Timing = res.N, toWireTiming(res.Timing)
			if err = reply(rep); err != nil {
				break
			}
			stride := libSampleStride
			if req == "run full" {
				stride = 1
			}
			if qerr = walkResult(res, row, stride, o, &rep); qerr != nil {
				rep.Err = qerr.Error()
			}
			err = reply(rep)
		default:
			err = fmt.Errorf("library child: unknown request %q", req)
		}
		if err != nil {
			return err
		}
	}
	return in.Err()
}

func walkResult(res *rd.Result, row []int32, stride int, o *oracle, rep *libReply) error {
	if len(res.Cols) != len(row) {
		return fmt.Errorf("%d result columns, want %d", len(res.Cols), len(row))
	}
	for i := 0; i < res.N; i += stride {
		for c := range row {
			row[c] = res.Cols[c][i]
		}
		if err := o.checkRow(row); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
		rep.Rows++
		rep.Sum += rowHash(row)
	}
	return nil
}

// libDoer is the single caller of the library child.
type libDoer struct {
	c *child
	o *oracle
}

func (d *libDoer) do(full bool) sample {
	var s sample
	req := "run"
	if full {
		req = "run full"
	}
	var rep libReply
	t0 := time.Now()
	err := d.c.call(req, &rep)
	s.firstByte = time.Since(t0)
	if err == nil {
		err = d.c.readReply(&rep)
	}
	s.total = time.Since(t0)
	s.verify = s.total - s.firstByte
	s.timing = rep.Timing
	switch {
	case err != nil:
		s.err = err
	case rep.Err != "":
		s.err = errors.New(rep.Err)
	case rep.N != d.o.n:
		s.err = fmt.Errorf("result cardinality %d, oracle joins %d", rep.N, d.o.n)
	case full && (rep.Rows != d.o.n || rep.Sum != d.o.sum):
		s.err = fmt.Errorf("library result: %d rows with checksum %#x, oracle has %d with %#x",
			rep.Rows, rep.Sum, d.o.n, d.o.sum)
	case !full && rep.Rows != (d.o.n+libSampleStride-1)/libSampleStride:
		s.err = fmt.Errorf("library result: %d sampled rows checked, want %d",
			rep.Rows, (d.o.n+libSampleStride-1)/libSampleStride)
	}
	return s
}
