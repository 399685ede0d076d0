package calibrator

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

func TestParseCPUList(t *testing.T) {
	cases := []struct {
		in   string
		want []int
	}{
		{"", nil},
		{"0", []int{0}},
		{"0-3", []int{0, 1, 2, 3}},
		{"0-1,4", []int{0, 1, 4}},
		{"2,0-1,8-9", []int{0, 1, 2, 8, 9}},
	}
	for _, c := range cases {
		got, err := ParseCPUList(c.in)
		if err != nil {
			t.Fatalf("ParseCPUList(%q): %v", c.in, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("ParseCPUList(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"x", "3-1", "1-x"} {
		if _, err := ParseCPUList(bad); err == nil {
			t.Fatalf("ParseCPUList(%q) accepted", bad)
		}
	}
}

func TestFlatTopologyDistances(t *testing.T) {
	topo := FlatTopology(4)
	if len(topo.CPUs) != 4 || topo.Source != "flat" {
		t.Fatalf("flat topology: %+v", topo)
	}
	if topo.Nodes() != 1 {
		t.Fatalf("flat topology has %d nodes, want 1", topo.Nodes())
	}
	if d := topo.Distance(1, 1); d != DistSelf {
		t.Fatalf("self distance %d", d)
	}
	// Distinct flat CPUs share the single LLC but not a core.
	if d := topo.Distance(0, 3); d != DistShared {
		t.Fatalf("flat cross-CPU distance %d, want DistShared", d)
	}
	// Worker indices beyond the CPU count fold onto the CPU list.
	if d := topo.Distance(0, 4); d != DistSelf {
		t.Fatalf("folded distance %d, want DistSelf", d)
	}
}

// TestSysfsTopologyFixture drives the sysfs reader over a synthetic
// tree: 2 nodes x 2 cores x 2 SMT threads, one LLC per node. Every
// distance class must be recovered.
func TestSysfsTopologyFixture(t *testing.T) {
	root := t.TempDir()
	// cpu layout: node0 = cpus 0-3 (cores 0,1; siblings 0/1 and 2/3),
	// node1 = cpus 4-7 (cores 2,3).
	for cpu := 0; cpu < 8; cpu++ {
		base := filepath.Join(root, "devices/system/cpu", fmt.Sprintf("cpu%d", cpu))
		mustWrite(t, filepath.Join(base, "topology/core_id"), fmt.Sprintf("%d\n", cpu/2))
		mustWrite(t, filepath.Join(base, "topology/physical_package_id"), fmt.Sprintf("%d\n", cpu/4))
		// index0: private L1 data; index1: L1 instruction (never a data
		// level, however deep and large it claims to be); index2:
		// node-wide L3.
		mustWrite(t, filepath.Join(base, "cache/index0/type"), "Data\n")
		mustWrite(t, filepath.Join(base, "cache/index0/level"), "1\n")
		mustWrite(t, filepath.Join(base, "cache/index0/size"), "48K\n")
		mustWrite(t, filepath.Join(base, "cache/index0/shared_cpu_list"), fmt.Sprintf("%d-%d\n", cpu&^1, cpu|1))
		mustWrite(t, filepath.Join(base, "cache/index1/type"), "Instruction\n")
		mustWrite(t, filepath.Join(base, "cache/index1/level"), "4\n")
		mustWrite(t, filepath.Join(base, "cache/index1/size"), "1048576K\n")
		mustWrite(t, filepath.Join(base, "cache/index1/shared_cpu_list"), "0-7\n")
		mustWrite(t, filepath.Join(base, "cache/index2/type"), "Unified\n")
		mustWrite(t, filepath.Join(base, "cache/index2/level"), "3\n")
		mustWrite(t, filepath.Join(base, "cache/index2/size"), "266240K\n")
		llcLo := (cpu / 4) * 4
		mustWrite(t, filepath.Join(base, "cache/index2/shared_cpu_list"), fmt.Sprintf("%d-%d\n", llcLo, llcLo+3))
	}
	mustWrite(t, filepath.Join(root, "devices/system/node/node0/cpulist"), "0-3\n")
	mustWrite(t, filepath.Join(root, "devices/system/node/node1/cpulist"), "4-7\n")

	topo, err := sysfsTopology(root)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Source != "sysfs" || len(topo.CPUs) != 8 {
		t.Fatalf("topology: %+v", topo)
	}
	if topo.Nodes() != 2 {
		t.Fatalf("%d nodes, want 2", topo.Nodes())
	}
	if got := sysfsLLCBytes(root); got != 266240<<10 {
		t.Errorf("sysfsLLCBytes = %d, want the L3's 266240K", got)
	}
	for _, c := range []struct {
		a, b, want int
	}{
		{0, 0, DistSelf},
		{0, 1, DistSibling}, // same core
		{0, 2, DistShared},  // same LLC, different core
		{0, 4, DistRemote},  // different node
		{4, 5, DistSibling},
		{4, 6, DistShared},
	} {
		if d := topo.Distance(c.a, c.b); d != c.want {
			t.Errorf("Distance(%d,%d) = %d, want %d", c.a, c.b, d, c.want)
		}
	}
}

// TestSysfsLLCBytes: the size forms the kernel prints, a tree whose
// deepest level has no readable size (the next one down answers), and
// a masked tree (0: the planner keeps its declared threshold).
func TestSysfsLLCBytes(t *testing.T) {
	for in, want := range map[string]int{
		"48K": 48 << 10, "2048K": 2 << 20, "266240K": 260 << 20, "32M": 32 << 20, "512": 512,
		"": 0, "K": 0, "-4K": 0, "12Q": 0,
	} {
		if got := parseCacheSize(in); got != want {
			t.Errorf("parseCacheSize(%q) = %d, want %d", in, got, want)
		}
	}

	root := t.TempDir()
	if got := sysfsLLCBytes(root); got != 0 {
		t.Errorf("masked sysfs: %d bytes, want 0", got)
	}
	cache := filepath.Join(root, "devices/system/cpu/cpu0/cache")
	for i, c := range []struct{ typ, level, size string }{
		{"Data", "1", "48K"}, {"Instruction", "1", "32K"}, {"Unified", "2", "2048K"}, {"Unified", "3", ""},
	} {
		base := filepath.Join(cache, fmt.Sprintf("index%d", i))
		mustWrite(t, filepath.Join(base, "type"), c.typ+"\n")
		mustWrite(t, filepath.Join(base, "level"), c.level+"\n")
		if c.size != "" {
			mustWrite(t, filepath.Join(base, "size"), c.size+"\n")
		}
	}
	if got := sysfsLLCBytes(root); got != 2<<20 {
		t.Errorf("sizeless L3: %d bytes, want the L2's 2048K", got)
	}
	mustWrite(t, filepath.Join(cache, "index3/size"), "32M\n")
	if got := sysfsLLCBytes(root); got != 32<<20 {
		t.Errorf("sysfsLLCBytes = %d, want the L3's 32M", got)
	}
}

// TestDetectTopology pins the live path: some topology always comes
// back, with at least one CPU and internally consistent distances.
func TestDetectTopology(t *testing.T) {
	topo := DetectTopology()
	if topo == nil || len(topo.CPUs) == 0 {
		t.Fatalf("DetectTopology: %+v", topo)
	}
	if topo.Source != "sysfs" && topo.Source != "flat" {
		t.Fatalf("unknown source %q", topo.Source)
	}
	t.Logf("topology: %d cpus, %d nodes, source=%s (NumCPU=%d)",
		len(topo.CPUs), topo.Nodes(), topo.Source, runtime.NumCPU())
	for i := range topo.CPUs {
		if d := topo.Distance(i, i); d != DistSelf {
			t.Fatalf("Distance(%d,%d) = %d", i, i, d)
		}
	}
}

func mustWrite(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
