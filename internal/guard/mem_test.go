package guard

import (
	"os"
	"os/exec"
	"testing"
)

// startupHeapSample is the default sampler's reading before any test
// has run — the point in a process where the least heap has been
// accounted.
var startupHeapSample uint64

func TestMain(m *testing.M) {
	startupHeapSample = heapInUse()
	os.Exit(m.Run())
}

// TestHeapSamplerAtStartup re-runs this test binary with GOMAXPROCS=1,
// where the live-objects figure of runtime/metrics reads 0 at start-up
// (its objects are counted only as their spans leave the allocation
// cache), and demands the sampler's start-up reading be non-zero.
func TestHeapSamplerAtStartup(t *testing.T) {
	if os.Getenv("GOMAXPROCS") == "1" {
		if startupHeapSample == 0 {
			t.Fatal("heap sample taken at start-up is zero")
		}
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestHeapSamplerAtStartup$", "-test.count=1")
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("GOMAXPROCS=1 run: %v\n%s", err, out)
	}
}
