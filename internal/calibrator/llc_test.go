package calibrator

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestSysfsLLCBytes: the size forms the kernel prints, a tree whose
// deepest level has no readable size (the next one down answers), an
// instruction cache (never a data level, however deep and large it
// claims to be), and a masked tree (0: the planner keeps its declared
// threshold).
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
		{"Instruction", "4", "1048576K"},
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

func mustWrite(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
