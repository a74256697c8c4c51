package server

import (
	"context"
	"runtime"
	"testing"

	"muse/internal/obs"
)

// TestSetupRetainsNothing: building the builtin scenarios, a manager
// over them, priming it and closing it must leave (almost) nothing
// reachable once the manager is dropped. Process-wide caches keyed by
// catalog pieces would pin every set-up's catalogs for the process's
// lifetime.
func TestSetupRetainsNothing(t *testing.T) {
	setup := func() {
		mg := NewManager(Builtin(), obs.New())
		mg.Prime(context.Background())
		mg.Close()
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for i := 0; i < 5; i++ {
		setup() // warm pools and one-time package state
	}
	const n = 40
	before := heap()
	for i := 0; i < n; i++ {
		setup()
	}
	after := heap()
	per := (float64(after) - float64(before)) / n
	t.Logf("retained %.2f KiB per set-up", per/1024)
	if per >= 1024 {
		t.Fatalf("each set-up retains %.2f KiB after GC, want < 1 KiB", per/1024)
	}
}
