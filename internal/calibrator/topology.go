package calibrator

// CPU topology discovery for the runtime's partition-affine scheduler.
//
// The memory-hierarchy calibration above recovers *how much* cache a
// worker owns; topology discovery recovers *which workers share it*.
// The scheduler needs both: a morsel should run on the core whose
// private caches already hold its partition, and an idle worker should
// steal from the victim whose caches are cheapest to inherit from — an
// SMT sibling (shared L1/L2) before a core on the same LLC or NUMA
// node, and a remote node only last.
//
// Discovery reads the Linux sysfs topology files
// (/sys/devices/system/cpu/cpu*/topology, .../cache/index*,
// /sys/devices/system/node/node*/cpulist); anywhere they are missing
// (non-Linux, containers with masked sysfs) a flat topology takes
// over: every CPU its own core, all sharing one LLC on one node —
// which degrades the steal order to plain round-robin and costs
// nothing else.

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// TopoCPU is one logical CPU's position in the machine: the physical
// core it lives on (SMT siblings share it), the last-level-cache
// sharing group, and the NUMA node.
type TopoCPU struct {
	ID   int
	Core int
	LLC  int
	Node int
}

// Topology is the machine's CPU layout. Source records where it came
// from ("sysfs" or "flat").
type Topology struct {
	CPUs   []TopoCPU
	Source string
}

// Topology distance classes, nearest first — the steal order.
const (
	// DistSelf: the same logical CPU.
	DistSelf = 0
	// DistSibling: an SMT sibling — same physical core, shared L1/L2.
	DistSibling = 1
	// DistShared: same last-level cache (and hence same node).
	DistShared = 2
	// DistNode: same NUMA node but a different LLC (multi-CCX parts).
	DistNode = 3
	// DistRemote: a different NUMA node — stealing crosses the
	// interconnect.
	DistRemote = 4
)

// Distance classifies the cache relationship between two logical CPUs
// (by index into CPUs, which worker ids map onto): DistSelf /
// DistSibling / DistShared / DistNode / DistRemote. Out-of-range
// indices are folded onto the CPU list, matching how a runtime with
// more workers than CPUs lays leases out.
func (t *Topology) Distance(a, b int) int {
	n := len(t.CPUs)
	if n == 0 {
		return DistShared
	}
	ca, cb := t.CPUs[a%n], t.CPUs[b%n]
	switch {
	case ca.ID == cb.ID:
		return DistSelf
	case ca.Core == cb.Core:
		return DistSibling
	case ca.LLC == cb.LLC:
		return DistShared
	case ca.Node == cb.Node:
		return DistNode
	}
	return DistRemote
}

// Nodes returns the number of distinct NUMA nodes.
func (t *Topology) Nodes() int {
	seen := map[int]bool{}
	for _, c := range t.CPUs {
		seen[c.Node] = true
	}
	return len(seen)
}

// FlatTopology is the fallback layout: n CPUs, each its own physical
// core, all sharing one LLC on one node. Steal order under it is plain
// nearest-index round-robin: no distance information is available.
func FlatTopology(n int) *Topology {
	if n < 1 {
		n = 1
	}
	t := &Topology{CPUs: make([]TopoCPU, n), Source: "flat"}
	for i := range t.CPUs {
		t.CPUs[i] = TopoCPU{ID: i, Core: i, LLC: 0, Node: 0}
	}
	return t
}

var (
	topoOnce sync.Once
	topoVal  *Topology
)

// DetectTopology discovers the machine's CPU layout once per process:
// sysfs on Linux, the flat fallback elsewhere (or when sysfs is
// masked). The result is cached — topology does not change under a
// running process.
func DetectTopology() *Topology {
	topoOnce.Do(func() {
		if t, err := sysfsTopology("/sys"); err == nil {
			topoVal = t
			return
		}
		topoVal = FlatTopology(runtime.NumCPU())
	})
	return topoVal
}

// sysfsTopology reads the Linux topology files under root (normally
// "/sys"; split out so tests can point it at a fixture tree).
func sysfsTopology(root string) (*Topology, error) {
	cpuDir := root + "/devices/system/cpu"
	ids, err := sysfsCPUIDs(cpuDir)
	if err != nil {
		return nil, err
	}

	nodeOf := sysfsNodeMap(root + "/devices/system/node")
	t := &Topology{Source: "sysfs"}
	for _, id := range ids {
		base := fmt.Sprintf("%s/cpu%d", cpuDir, id)
		cpu := TopoCPU{ID: id, Core: id, LLC: 0, Node: 0}
		// Physical core: package id and core id together (core ids
		// repeat across packages).
		pkg := readSysfsInt(base+"/topology/physical_package_id", 0)
		core := readSysfsInt(base+"/topology/core_id", id)
		cpu.Core = pkg<<16 | core
		// LLC group: the highest-index data/unified cache's sharing
		// set, identified by its lowest member.
		cpu.LLC = sysfsLLCGroup(base+"/cache", id)
		if n, ok := nodeOf[id]; ok {
			cpu.Node = n
		}
		t.CPUs = append(t.CPUs, cpu)
	}
	return t, nil
}

// sysfsCPUIDs lists the logical CPU ids under cpuDir, ascending.
func sysfsCPUIDs(cpuDir string) ([]int, error) {
	entries, err := os.ReadDir(cpuDir)
	if err != nil {
		return nil, err
	}
	var ids []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "cpu") {
			continue
		}
		id, err := strconv.Atoi(name[3:])
		if err != nil {
			continue // cpufreq, cpuidle, ...
		}
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("calibrator: no cpus under %s", cpuDir)
	}
	sort.Ints(ids)
	return ids, nil
}

// sysfsLLCGroup returns the id of the CPU's last-level-cache sharing
// group: the smallest CPU id in the deepest cache's shared_cpu_list.
func sysfsLLCGroup(cacheDir string, self int) int {
	best, bestLevel := self, -1
	forEachDataCache(cacheDir, func(base string, level int) {
		if level <= bestLevel {
			return
		}
		shared, err := os.ReadFile(base + "/shared_cpu_list")
		if err != nil {
			return
		}
		cpus, err := ParseCPUList(strings.TrimSpace(string(shared)))
		if err != nil || len(cpus) == 0 {
			return
		}
		bestLevel, best = level, cpus[0]
	})
	return best
}

// forEachDataCache calls fn with the directory and level of every
// data or unified cache under one CPU's cache directory (instruction
// caches and entries without a readable type are skipped).
func forEachDataCache(cacheDir string, fn func(base string, level int)) {
	entries, err := os.ReadDir(cacheDir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "index") {
			continue
		}
		base := cacheDir + "/" + e.Name()
		typ, err := os.ReadFile(base + "/type")
		if err != nil {
			continue
		}
		if kind := strings.TrimSpace(string(typ)); kind != "Data" && kind != "Unified" {
			continue
		}
		fn(base, readSysfsInt(base+"/level", 0))
	}
}

var (
	llcOnce  sync.Once
	llcBytes int
)

// DetectLLCBytes returns the size in bytes of the host's last-level
// data cache as sysfs reports it for the first CPU, 0 when sysfs is
// missing or masked. It is what the planner's residency test is fed on
// a serving host (mem.Hierarchy.ResidentBytes); nothing is sized from
// it. Read once per process, like DetectTopology.
func DetectLLCBytes() int {
	llcOnce.Do(func() { llcBytes = sysfsLLCBytes("/sys") })
	return llcBytes
}

// sysfsLLCBytes reads the deepest data/unified cache's size from the
// lowest-numbered CPU's cache/index*/{level,type,size} files under
// root. Instruction caches are skipped; 0 when nothing parses.
func sysfsLLCBytes(root string) int {
	cpuDir := root + "/devices/system/cpu"
	ids, err := sysfsCPUIDs(cpuDir)
	if err != nil {
		return 0
	}
	size, bestLevel := 0, -1
	forEachDataCache(fmt.Sprintf("%s/cpu%d/cache", cpuDir, ids[0]), func(base string, level int) {
		if level <= bestLevel {
			return
		}
		buf, err := os.ReadFile(base + "/size")
		if err != nil {
			return
		}
		if n := parseCacheSize(strings.TrimSpace(string(buf))); n > 0 {
			bestLevel, size = level, n
		}
	})
	return size
}

// parseCacheSize parses the kernel's cache size format ("48K",
// "2048K", "32M", plain bytes) into bytes; 0 for anything else.
func parseCacheSize(s string) int {
	shift := 0
	switch {
	case strings.HasSuffix(s, "K"):
		s, shift = s[:len(s)-1], 10
	case strings.HasSuffix(s, "M"):
		s, shift = s[:len(s)-1], 20
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		return 0
	}
	return n << shift
}

// sysfsNodeMap maps CPU id -> NUMA node from node*/cpulist files.
func sysfsNodeMap(nodeDir string) map[int]int {
	out := map[int]int{}
	entries, err := os.ReadDir(nodeDir)
	if err != nil {
		return out
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "node") {
			continue
		}
		node, err := strconv.Atoi(name[4:])
		if err != nil {
			continue
		}
		buf, err := os.ReadFile(nodeDir + "/" + name + "/cpulist")
		if err != nil {
			continue
		}
		cpus, err := ParseCPUList(strings.TrimSpace(string(buf)))
		if err != nil {
			continue
		}
		for _, c := range cpus {
			out[c] = node
		}
	}
	return out
}

// readSysfsInt reads a single decimal integer file, returning def on
// any failure.
func readSysfsInt(path string, def int) int {
	buf, err := os.ReadFile(path)
	if err != nil {
		return def
	}
	v, err := strconv.Atoi(strings.TrimSpace(string(buf)))
	if err != nil {
		return def
	}
	return v
}

// ParseCPUList parses the kernel's cpulist format ("0-3,8,10-11")
// into the sorted list of CPU ids.
func ParseCPUList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		lo, hi, found := strings.Cut(part, "-")
		a, err := strconv.Atoi(lo)
		if err != nil {
			return nil, fmt.Errorf("calibrator: bad cpulist %q: %w", s, err)
		}
		b := a
		if found {
			if b, err = strconv.Atoi(hi); err != nil {
				return nil, fmt.Errorf("calibrator: bad cpulist %q: %w", s, err)
			}
		}
		if b < a {
			return nil, fmt.Errorf("calibrator: bad cpulist range %q", part)
		}
		for c := a; c <= b; c++ {
			out = append(out, c)
		}
	}
	sort.Ints(out)
	return out, nil
}
