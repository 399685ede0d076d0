// Command benchmark is the repository's benchmark: it drives the
// program under test as a child process (the real cmd/joinserve over
// loopback HTTP, or this binary's own -child lib mode calling
// radixdecluster.ProjectJoin), checks every answer, and measures the
// end-to-end metrics and the per-layer ledger declared in
// BENCHMARK.json from outside the program. See README.md.
//
//	benchmark -workload svc_engine_raw -seed 1 -seconds 15 -trace 0
//	benchmark                      every workload, untraced then traced
//	benchmark -runs 10 -out A.json ten seeds of each, recorded
//	benchmark -compare A.json B.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	workloadFlag := flag.String("workload", "", "workload name[,name...] (default: every workload in BENCHMARK.json)")
	seed := flag.Uint64("seed", 1, "seed of the relation data and the arrival schedule; run i of -runs uses seed+i")
	seconds := flag.Float64("seconds", 0, "how long one run measures (default: run_seconds in BENCHMARK.json)")
	traceFlag := flag.String("trace", "both", "0: timed pass, end-to-end metrics; 1: traced pass and probes, per-layer metrics; both: one run of each")
	runs := flag.Int("runs", 1, "runs per workload and trace mode, each with its own seed")
	outPath := flag.String("out", "", "write every run and the machine shape to this results file")
	compare := flag.Bool("compare", false, "compare two results files: benchmark -compare A.json B.json")
	rootFlag := flag.String("root", "", "checkout root (default: the directory holding BENCHMARK.json, here or one up)")
	childMode := flag.String("child", "", "internal: run as the program under test (lib)")
	childN := flag.Int("n", 0, "internal: -child lib tuples per relation")
	childPi := flag.Int("pi", 0, "internal: -child lib payload columns per side")
	flag.Parse()

	if *childMode != "" {
		if *childMode != "lib" {
			fatal(fmt.Errorf("unknown -child mode %q", *childMode))
		}
		if err := libChildMain(*childN, *childPi, *seed); err != nil {
			fatal(err)
		}
		return
	}

	root, err := findRoot(*rootFlag)
	if err != nil {
		fatal(err)
	}
	decl, err := loadDecl(root)
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("usage: benchmark -compare A.json B.json"))
		}
		worse, err := compareFiles(os.Stdout, decl, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	if *workloadFlag != "" {
		names = strings.Split(*workloadFlag, ",")
	}
	var traces []bool
	switch *traceFlag {
	case "0":
		traces = []bool{false}
	case "1":
		traces = []bool{true}
	case "both":
		traces = []bool{false, true}
	default:
		fatal(fmt.Errorf("-trace %q: want 0, 1 or both", *traceFlag))
	}
	if *seconds <= 0 {
		*seconds = float64(decl.RunSeconds)
	}

	// SIGINT and SIGTERM cancel the context every child is bound to, so
	// no daemon outlives an interrupted benchmark.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	type runSpec struct {
		w     *workloadSpec
		seed  uint64
		trace bool
	}
	var specs []runSpec
	for _, name := range names {
		w := findWorkload(name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", name))
		}
		for i := 0; i < *runs; i++ {
			for _, trace := range traces {
				specs = append(specs, runSpec{w, *seed + uint64(i), trace})
			}
		}
	}

	started := time.Now()
	file := resultsFile{Machine: machineShape(root)}
	allCorrect := true
	// One run is made here. Several are each made in a process of its
	// own, as the driver that judges the benchmark makes them: a
	// generator that has already driven a run hands the next one a
	// different scheduling history on a two-core box, and the small
	// workload's latency shows it.
	for _, sp := range specs {
		var res *runResult
		if len(specs) == 1 {
			e := &env{root: root, decl: decl}
			if e.joinserve, err = buildJoinserve(ctx, root); err != nil {
				fatal(err)
			}
			if res, err = runOne(ctx, e, sp.w, sp.seed, *seconds, sp.trace); err != nil {
				if ctx.Err() != nil {
					err = fmt.Errorf("interrupted: %w", ctx.Err()) // not whichever read of the killed child failed first
				}
				fatal(err)
			}
			printRun(decl, res)
		} else if res, err = runInOwnProcess(ctx, root, sp.w.name, sp.seed, *seconds, sp.trace); err != nil {
			fatal(err)
		}
		file.Runs = append(file.Runs, res)
		allCorrect = allCorrect && res.Correct
	}
	if *outPath != "" {
		if err := file.write(*outPath); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "benchmark: %d runs in %.1fs\n", len(file.Runs), time.Since(started).Seconds())
	if !allCorrect {
		os.Exit(1)
	}
}

// runInOwnProcess re-executes this binary for one run, passes its
// report through and reads the result object off its last line.
func runInOwnProcess(ctx context.Context, root, workload string, seed uint64, seconds float64, trace bool) (*runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	cmd := exec.CommandContext(ctx, self, "-root", root, "-workload", workload,
		"-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", traceArg)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	os.Stdout.Write(out) //nolint:errcheck // a report nobody reads
	var exit *exec.ExitError
	if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) { // 1: it ran, and some answer was wrong
		return nil, fmt.Errorf("run of %s, seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte{'\n'})
	res := &runResult{Workload: workload, Seed: seed, Seconds: seconds, Trace: trace}
	if err := json.Unmarshal(lines[len(lines)-1], res); err != nil {
		return nil, fmt.Errorf("run of %s, seed %d: result line: %w", workload, seed, err)
	}
	return res, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// findRoot locates the checkout: the directory with BENCHMARK.json,
// which is the working directory when run by BENCHMARK.json's command
// and its parent when run as `go run .` inside benchmark/.
func findRoot(flagVal string) (string, error) {
	for _, dir := range []string{flagVal, ".", ".."} {
		if dir == "" {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("BENCHMARK.json not found here or one directory up; pass -root")
}

// printRun prints one run: a line per metric with its unit and the
// number of correct queries it was computed from, then the result
// object as the last line.
func printRun(decl *benchmarkDecl, r *runResult) {
	mode := "timed pass, tracing off"
	if r.Trace {
		mode = "traced pass and probes"
	}
	fmt.Printf("\n%s  seed %d  %gs  %s  (%d queries attempted, %d failed; p%g is the highest percentile with 10 samples beyond it)\n",
		r.Workload, r.Seed, r.Seconds, mode, r.Attempted, r.Failed, 100*supportedPercentile(r.Attempted-r.Failed))
	for _, m := range decl.metricsFor(r.Trace) {
		n := r.Attempted - r.Failed
		if _, ok := r.probed[m.Name]; ok {
			n = probeReps
		}
		fmt.Printf("  %-40s %14.4f %-9s n=%d\n", m.Name, r.Metrics[m.Name].Value, m.Unit, n)
	}
	if r.Raw != nil {
		// What steadied() started from, so that a reader can tell what the
		// box did to this run from what the program did.
		fmt.Printf("  box speed around each timed slice, calibration / reference (above 1: slower): %.3f\n", r.BoxSpeed)
		fmt.Print("  over the whole pass, as measured:")
		for _, m := range decl.EndToEnd {
			if v, ok := r.Raw[m.Name]; ok {
				fmt.Printf("  %s %.4f", m.Name, v)
			}
		}
		fmt.Println()
	}
	if r.firstErr != nil {
		fmt.Printf("  first failure: %v\n", r.firstErr)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
}

// machine is the shape results are only comparable within.
type machine struct {
	NProc  int    `json:"nproc"`
	CPU    string `json:"cpu"`
	Go     string `json:"go"`
	Commit string `json:"commit"`
}

func machineShape(root string) machine {
	m := machine{NProc: runtime.NumCPU(), Go: runtime.Version(), CPU: "unknown", Commit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, ln := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(ln, "model name"); ok {
				m.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	return m
}

// resultsFile is what -out writes and -compare reads.
type resultsFile struct {
	Machine machine      `json:"machine"`
	Runs    []*runResult `json:"runs"`
}

func (f *resultsFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
