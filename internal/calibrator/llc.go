package calibrator

// Last-level-cache discovery for the planner's residency test.
//
// The memory-hierarchy calibration (calibrator.go) recovers the shape of a
// DECLARED machine; this file reads one fact about the HOST: the size of
// its last-level data cache, from the Linux sysfs cache files
// (/sys/devices/system/cpu/cpu*/cache/index*). Anywhere they are missing
// (non-Linux, containers with masked sysfs) the answer is 0 and the
// planner keeps its declared threshold.

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
)

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
// it. Read once per process.
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
