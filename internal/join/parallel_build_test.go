package join

import (
	"math/rand"
	"reflect"
	"testing"
)

// The sharded parallel build must produce a table byte-identical to
// the serial build — same bucket heads, same chain links — so probes
// emit duplicate matches in exactly the serial order.
func TestBuildRowsTableParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n, w, key = 5000, 3, 1
	rows := make([]int32, n*w)
	for i := 0; i < n; i++ {
		rows[i*w] = int32(i)
		rows[i*w+key] = int32(rng.Intn(n / 4)) // duplicate keys: chain order matters
		rows[i*w+2] = int32(rng.Int31())
	}
	serialRun := func(ntasks int, body func(task int)) {
		for task := 0; task < ntasks; task++ {
			body(task)
		}
	}
	want, err := BuildRowsTable(rows, w, key, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 3, 7, 16} {
		got, err := BuildRowsTableParallelBufs(rows, w, key, 0, shards, serialRun, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.t.first, want.t.first) {
			t.Fatalf("shards=%d: bucket heads differ from serial build", shards)
		}
		if !reflect.DeepEqual(got.t.next, want.t.next) {
			t.Fatalf("shards=%d: chain links differ from serial build", shards)
		}
		probe := make([]int32, 2*w)
		probe[0*w+key] = rows[key] // key of row 0
		probe[1*w+key] = -1        // no match
		wantOut, wantN := want.ProbeRows(probe, w, key, nil)
		gotOut, gotN := got.ProbeRows(probe, w, key, nil)
		if !reflect.DeepEqual(gotOut, wantOut) || gotN != wantN {
			t.Fatalf("shards=%d: probe output differs", shards)
		}
	}
}

// shardRange must tile [0, n) exactly for any shard count.
func TestShardRangeTiles(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64, 1000} {
		for _, k := range []int{1, 2, 3, 7, 64} {
			prev := 0
			for s := 0; s < k; s++ {
				lo, hi := shardRange(n, k, s)
				if lo != prev || hi < lo {
					t.Fatalf("n=%d k=%d shard %d: [%d,%d) after %d", n, k, s, lo, hi, prev)
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("n=%d k=%d: shards cover [0,%d)", n, k, prev)
			}
		}
	}
}
