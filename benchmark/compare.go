package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values collects one metric's value from every untraced run of one
// workload.
func (f *resultsFile) values(workload, name string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Trace {
			out = append(out, m.Value)
		}
	}
	return out
}

// verdict judges B against A for one metric on one workload: the
// relative difference of the medians in the direction that is worse
// (with A's median as its base), and
//
//	unresolved  either side's run-to-run spread exceeds the bound, so
//	            the difference cannot be told from noise
//	worse       B's median is worse than A's by more than the bound
//	within      otherwise
func verdict(m metricDecl, a, b []float64) (worseBy float64, v string) {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	worseBy = ratio(mb-ma, ma)
	if m.Better == "higher" {
		worseBy = -worseBy
	}
	switch {
	case spread(a) > m.Bound || spread(b) > m.Bound:
		return worseBy, "unresolved"
	case worseBy > m.Bound:
		return worseBy, "worse"
	}
	return worseBy, "within"
}

// compareFiles prints, per workload and end-to-end metric, both sides'
// medians with quartiles, B's difference from A, the bound and the
// verdict. It reports whether any verdict was "worse".
func compareFiles(w io.Writer, decl *benchmarkDecl, pathA, pathB string) (anyWorse bool, err error) {
	fa, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	fb, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A: %s  %+v\nB: %s  %+v\n", pathA, fa.Machine, pathB, fb.Machine)
	if fa.Machine.NProc != fb.Machine.NProc || fa.Machine.CPU != fb.Machine.CPU {
		fmt.Fprintln(w, "warning: the two files come from different machine shapes; the verdicts below mean little")
	}
	for _, wl := range decl.Workloads {
		fmt.Fprintf(w, "\n%s\n  %-20s %-8s %40s %40s %18s %7s  %s\n", wl.Name,
			"metric", "unit", "A median [q1, q3] spread (runs)", "B median [q1, q3] spread (runs)", "B worse than A by", "bound", "verdict")
		for _, m := range decl.EndToEnd {
			a, b := fa.values(wl.Name, m.Name), fb.values(wl.Name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(w, "  %-20s %-8s not in both files\n", m.Name, m.Unit)
				continue
			}
			worseBy, v := verdict(m, a, b)
			anyWorse = anyWorse || v == "worse"
			_, ma, _ := quartiles(a)
			fmt.Fprintf(w, "  %-20s %-8s %40s %40s %+9.2f%% of %-8.4g %6.0f%%  %s\n", m.Name, m.Unit,
				quartileCell(a), quartileCell(b), 100*worseBy, ma, 100*m.Bound, v)
		}
	}
	return anyWorse, nil
}

func quartileCell(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] %4.1f%% (%d)", q2, q1, q3, 100*spread(xs), len(xs))
}
