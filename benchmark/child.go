package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"radixdecluster/internal/server"
)

// readyTimeout bounds spawn -> ready; a child that has not come up by
// then is killed and its log becomes the error.
const readyTimeout = 60 * time.Second

// buildJoinserve compiles cmd/joinserve from the checkout at root into
// root/.bench_build and returns the binary's path. The go tool's own
// cache makes repeat builds cheap, so every invocation builds and a
// stale daemon is never measured.
func buildJoinserve(ctx context.Context, root string) (string, error) {
	dir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "joinserve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/joinserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/joinserve in %s: %v\n%s", root, err, out)
	}
	return bin, nil
}

// child is the program under test running as a process of its own, so
// that CPU time, resident memory and heap counters read from outside
// belong to it and not to the load generator.
type child struct {
	cmd *exec.Cmd
	log *syncBuffer

	url string // joinserve base URL; empty for the library child

	// Library child: one request line in, one JSON line out.
	stdin io.WriteCloser
	out   *bufio.Reader

	spawnReady time.Duration // spawn -> accepting queries
}

type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// command prepares a child that dies with ctx and, on Linux, with this
// process even if this process is killed outright.
func command(ctx context.Context, bin string, args ...string) (*exec.Cmd, *syncBuffer) {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	log := &syncBuffer{}
	cmd.Stderr = log
	return cmd, log
}

var listenRE = regexp.MustCompile(`listening on (http://\S+)`)

// startServe spawns joinserve with data-shape flags only (every
// scheduler and service knob stays at its default), reads the port it
// picked from its "listening on" line and waits for /v1/status.
func startServe(ctx context.Context, bin string, w *workloadSpec, seed uint64) (*child, error) {
	cmd, log := command(ctx, bin, "-addr", "127.0.0.1:0",
		"-n", strconv.Itoa(w.n), "-pi", strconv.Itoa(w.pi),
		"-pairs", strconv.Itoa(w.pairs), "-seed", strconv.FormatUint(seed, 10))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, log: log}

	urlCh := make(chan string, 1)
	go func() { // drains stdout for the life of the child
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			fmt.Fprintln(log, sc.Text())
			if m := listenRE.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case urlCh <- m[1]:
				default:
				}
			}
		}
		close(urlCh)
	}()
	select {
	case u, ok := <-urlCh:
		if !ok {
			c.stop()
			return nil, fmt.Errorf("joinserve exited before listening; its log:\n%s", log)
		}
		c.url = u
	case <-time.After(readyTimeout):
		c.stop()
		return nil, fmt.Errorf("joinserve not listening after %v; its log:\n%s", readyTimeout, log)
	case <-ctx.Done():
		c.stop()
		return nil, ctx.Err()
	}
	for {
		resp, err := http.Get(c.url + "/v1/status")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(t0) > readyTimeout || ctx.Err() != nil {
			c.stop()
			return nil, fmt.Errorf("joinserve /v1/status not ready (%v); its log:\n%s", err, log)
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.spawnReady = time.Since(t0)
	return c, nil
}

// startLib re-executes this binary in its -child lib mode and waits
// for its "ready" line.
func startLib(ctx context.Context, w *workloadSpec, seed uint64) (*child, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd, log := command(ctx, self, "-child", "lib",
		"-n", strconv.Itoa(w.n), "-pi", strconv.Itoa(w.pi), "-seed", strconv.FormatUint(seed, 10))
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, log: log, stdin: stdin, out: bufio.NewReaderSize(stdout, 1<<16)}
	if _, err := c.out.ReadBytes('\n'); err != nil {
		c.stop()
		return nil, fmt.Errorf("library child exited before ready (%v); its log:\n%s", err, log)
	}
	c.spawnReady = time.Since(t0)
	return c, nil
}

// call sends one request line to the library child and decodes its
// one-line JSON answer.
func (c *child) call(req string, v any) error {
	if _, err := io.WriteString(c.stdin, req+"\n"); err != nil {
		return err
	}
	return c.readReply(v)
}

// readReply decodes the library child's next answer line.
func (c *child) readReply(v any) error {
	line, err := c.out.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("library child: %w; its log:\n%s", err, c.log)
	}
	return json.Unmarshal(line, v)
}

// stop kills the child and waits until it has ended.
func (c *child) stop() {
	if c.stdin != nil {
		c.stdin.Close()
	}
	c.cmd.Process.Kill() //nolint:errcheck // already exited is fine
	c.cmd.Wait()         //nolint:errcheck // killed: the status is not news
}

// counters is one outside reading of the child: /proc for CPU and
// resident memory, the Go heap statistics (pprof heap trailer for
// joinserve, runtime.MemStats for the library child) and, for
// joinserve, /v1/status.
type counters struct {
	cpuMs  float64
	hwmMB  float64
	heap   heapStats
	status server.Status
}

// heapStats are the runtime.MemStats fields the benchmark reads.
type heapStats struct {
	TotalAlloc uint64   `json:"totalAlloc"`
	Mallocs    uint64   `json:"mallocs"`
	NumGC      uint32   `json:"numGC"`
	PauseNs    []uint64 `json:"pauseNs"` // the runtime's circular buffer of recent pauses
}

// pauseSince sums the GC pauses of the cycles after prev. The runtime
// keeps the last 256; a longer interval is scaled from those.
func (h heapStats) pauseSince(prev heapStats) float64 {
	cycles := int(h.NumGC - prev.NumGC)
	if cycles <= 0 || len(h.PauseNs) == 0 {
		return 0
	}
	n := min(cycles, len(h.PauseNs))
	var sum uint64
	for i := 0; i < n; i++ {
		sum += h.PauseNs[(int(h.NumGC)-1-i+len(h.PauseNs)*2)%len(h.PauseNs)]
	}
	return float64(sum) * float64(cycles) / float64(n)
}

func (c *child) snapshot() (counters, error) {
	var k counters
	var err error
	pid := c.cmd.Process.Pid
	if k.cpuMs, err = procCPUMs(pid); err != nil {
		return k, err
	}
	if k.hwmMB, err = procStatusMB(pid, "VmHWM"); err != nil {
		return k, err
	}
	if c.url == "" {
		return k, c.call("stats", &k.heap)
	}
	if err := getJSON(c.url+"/v1/status", &k.status); err != nil {
		return k, err
	}
	resp, err := http.Get(c.url + "/debug/pprof/heap?debug=1")
	if err != nil {
		return k, err
	}
	defer resp.Body.Close()
	k.heap, err = parseHeapTrailer(resp.Body)
	return k, err
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// parseHeapTrailer reads the "# runtime.MemStats" block that ends a
// debug=1 heap profile.
func parseHeapTrailer(r io.Reader) (heapStats, error) {
	var h heapStats
	seen := 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		name, val, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "# "), " = ")
		if !ok || !strings.HasPrefix(sc.Text(), "# ") {
			continue
		}
		var err error
		switch name {
		case "TotalAlloc":
			h.TotalAlloc, err = strconv.ParseUint(val, 10, 64)
		case "Mallocs":
			h.Mallocs, err = strconv.ParseUint(val, 10, 64)
		case "NumGC":
			var n uint64
			n, err = strconv.ParseUint(val, 10, 32)
			h.NumGC = uint32(n)
		case "PauseNs":
			for _, f := range strings.Fields(strings.Trim(val, "[]")) {
				var p uint64
				if p, err = strconv.ParseUint(f, 10, 64); err != nil {
					break
				}
				h.PauseNs = append(h.PauseNs, p)
			}
		default:
			continue
		}
		if err != nil {
			return h, fmt.Errorf("heap trailer %s: %w", name, err)
		}
		seen++
	}
	if err := sc.Err(); err != nil {
		return h, err
	}
	if seen != 4 {
		return h, errors.New("heap profile has no runtime.MemStats trailer")
	}
	return h, nil
}

// procCPUMs is the process's user+system CPU time from
// /proc/<pid>/stat, in milliseconds (USER_HZ is 100 on Linux).
func procCPUMs(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after its
	// closing parenthesis: state is the 1st, utime the 12th, stime
	// the 13th.
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(ut+st) * 10, nil
}

// procStatusMB reads one kB-valued field of /proc/<pid>/status, such as
// VmHWM (peak resident set) or VmRSS (resident set now), in MB.
func procStatusMB(pid int, field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, ln := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(ln, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no %s", pid, field)
}

// rssInterval is how often the resident set is read during a timed
// pass.
const rssInterval = 100 * time.Millisecond

// sampleRSS reads the child's resident set every rssInterval until
// stop is closed and sends the readings, in MB, on the returned
// channel.
func (c *child) sampleRSS(stop <-chan struct{}) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		var mbs []float64
		tick := time.NewTicker(rssInterval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				out <- mbs
				return
			case <-tick.C:
				if v, err := procStatusMB(c.cmd.Process.Pid, "VmRSS"); err == nil {
					mbs = append(mbs, v)
				}
			}
		}
	}()
	return out
}
