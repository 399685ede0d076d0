package costmodel

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"testing"

	"radixdecluster/internal/mem"
)

// goldenShapes are the four strategy cost shapes (plus the naive-join
// rows shape, bits = 0) at cardinality n: each is the serial Appendix-A
// formula over a worker's 1/w share of the data and of the window —
// what internal/strategy hands CompressedWins.
var goldenShapes = []struct {
	name string
	cost func(n, bits int) func(m Model, w int) Cost
}{
	{"dsm-post", func(n, bits int) func(Model, int) Cost { return dsmPostCost(n, bits, 2) }},
	{"rows", func(n, bits int) func(Model, int) Cost {
		return func(m Model, w int) Cost {
			return PreProjectionRows(m, ceilDiv(n, w), ceilDiv(n, w), 12, 12, bits, ceilDiv(n, w))
		}
	}},
	{"rows-naive", func(n, _ int) func(Model, int) Cost {
		return func(m Model, w int) Cost {
			return PreProjectionRows(m, ceilDiv(n, w), ceilDiv(n, w), 12, 12, 0, ceilDiv(n, w))
		}
	}},
	{"nsm-post", func(n, bits int) func(Model, int) Cost {
		return func(m Model, w int) Cost {
			return NSMPostDecluster(m, ceilDiv(n, w), ceilDiv(n, w), 16, 8, bits, max(1, (64<<10)/w))
		}
	}},
	{"jive", func(n, bits int) func(Model, int) Cost {
		return func(m Model, w int) Cost {
			return JivePost(m, ceilDiv(n, w), ceilDiv(n, w), ceilDiv(n, w), 16, 8, bits)
		}
	}},
}

// dsmPostCost is the DSM post-projection shape: n ⋈ n tuples, pi
// columns per side, a 64 Ki-tuple insertion window.
func dsmPostCost(n, bits, pi int) func(m Model, w int) Cost {
	return func(m Model, w int) Cost {
		return DSMPostDecluster(m, ceilDiv(n, w), ceilDiv(n, w), 4, bits, pi, max(1, (64<<10)/w))
	}
}

// goldenGrid enumerates the representation table in the order of
// testdata/choose_golden.txt: one line per (shape, N, worker count)
// carrying the four compression terms' answers as "<workers>" (raw) or
// "<workers>c" (compressed). The line format is the deleted worker-count
// chooser's, kept so its rows could be retained byte for byte: maxw is
// the worker count the plan runs with, "q=1 aff=0" the sole-owner model
// that is now the only one.
func goldenGrid() []string {
	var lines []string
	for _, sh := range goldenShapes {
		for logN := 14; logN <= 24; logN += 2 {
			n := 1 << logN
			cost := sh.cost(n, max(1, logN-16))
			for _, w := range []int{1, 2, 4, 16} {
				// A fixed stream count: no calibration probe runs and the
				// table is the same on any box.
				m := Model{H: mem.Pentium4(), Streams: 4}
				var sb strings.Builder
				fmt.Fprintf(&sb, "%s n=2^%d maxw=%d q=1 aff=0:", sh.name, logN, w)
				for _, cp := range []Compression{
					{},
					{Ratio: 0.25, Values: 4 * n, DecodeNs: 0.5},
					{Ratio: 0.5, Values: 4 * n, DecodeNs: 3},
					{Ratio: 0.9, Values: 4 * n, DecodeNs: 5},
				} {
					fmt.Fprintf(&sb, " %d", w)
					if CompressedWins(m, w, cost, cp) {
						sb.WriteByte('c')
					}
				}
				lines = append(lines, sb.String())
			}
		}
	}
	return lines
}

// TestChooseGoldenGrid holds the representation decision to the table
// of the chooser it was cut out of: the rows for 1, 2 and 4 workers are
// that chooser's own (it ran every winner at its worker cap there), the
// 16-worker rows were regenerated when the worker search was deleted
// (the search preferred 8 workers on most of them), and no decision may
// move.
func TestChooseGoldenGrid(t *testing.T) {
	f, err := os.Open("testdata/choose_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	got := goldenGrid()
	if len(got) != len(want) {
		t.Fatalf("grid has %d points, golden table %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("decision moved:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
