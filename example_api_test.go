package radixdecluster_test

import (
	"fmt"
	"log"

	rd "radixdecluster"
)

// seqRelation builds a relation whose columns are small arithmetic
// sequences — exactly the shape Delta+FOR block compression shrinks
// to a few percent.
func seqRelation(name string, n int) *rd.Relation {
	keys := make([]int32, n)
	vals := make([]int32, n)
	for i := range keys {
		keys[i] = int32(i)
		vals[i] = int32(i * 3)
	}
	rel, err := rd.NewRelationOpts(name,
		[]rd.Column{{Name: "key", Values: keys}, {Name: "val", Values: vals}},
		rd.WithCompression(),
	)
	if err != nil {
		log.Fatal(err)
	}
	return rel
}

// ExampleNewRelationOpts opts a relation into block compression and
// runs a runtime DSM post-projection query over the encoded bytes: its
// fetches decode the relations' join images partition by partition.
// The encodings are built into the join images by the first compressed
// query; result bytes are identical to a raw run — only
// Result.Compressed tells them apart.
func ExampleNewRelationOpts() {
	orders := seqRelation("orders", 4096)
	customers := seqRelation("customers", 4096)
	res, err := rd.ProjectJoin(rd.JoinQuery{
		Larger: orders, Smaller: customers,
		LargerKey: "key", SmallerKey: "key",
		LargerProject:  []string{"val"},
		SmallerProject: []string{"val"},
		Parallelism:    rd.AutoParallelism,
		Compression:    rd.CompressionOn,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("rows:", res.N)
	fmt.Println("executed compressed:", res.Compressed)
	// Output:
	// rows: 4096
	// executed compressed: true
}

// ExampleNewRuntime runs a traced query on an explicit shared
// runtime. Every parallel ProjectJoin in a process multiplexes over
// one runtime's worker pool under admission control; JoinQuery.Trace
// records the execution as span events for Perfetto.
func ExampleNewRuntime() {
	rt := rd.NewRuntime(rd.RuntimeConfig{Workers: 2, MaxConcurrentQueries: 2})
	defer rt.Close()

	orders := seqRelation("orders", 4096)
	customers := seqRelation("customers", 4096)
	res, err := rd.ProjectJoin(rd.JoinQuery{
		Larger: orders, Smaller: customers,
		LargerKey: "key", SmallerKey: "key",
		LargerProject:  []string{"val"},
		SmallerProject: []string{"val"},
		Runtime:        rt,
		Parallelism:    rd.AutoParallelism, // planner: serial for a query this small
		Trace:          true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("rows:", res.N)
	// res.Trace.WriteJSON(f) exports the spans as Chrome trace-event
	// JSON for ui.perfetto.dev.
	fmt.Println("trace recorded:", res.Trace != nil && res.Trace.Spans() > 0)
	// Output:
	// rows: 4096
	// trace recorded: true
}

// ExampleTiming reads the per-phase breakdown of a completed query.
// Phase times vary run to run; the invariants shown here do not: a
// serial run never waits on a runtime queue, and every executed phase
// is contained in Total.
func ExampleTiming() {
	orders := seqRelation("orders", 1024)
	customers := seqRelation("customers", 1024)
	res, err := rd.ProjectJoin(rd.JoinQuery{
		Larger: orders, Smaller: customers,
		LargerKey: "key", SmallerKey: "key",
		LargerProject:  []string{"val"},
		SmallerProject: []string{"val"},
	})
	if err != nil {
		log.Fatal(err)
	}
	t := res.Timing
	fmt.Println("ran:", t.Total > 0)
	fmt.Println("join within total:", t.Join <= t.Total)
	fmt.Println("serial queue wait:", t.Queue)
	// Output:
	// ran: true
	// join within total: true
	// serial queue wait: 0s
}
