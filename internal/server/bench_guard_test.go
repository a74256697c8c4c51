package server_test

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// serverAllocHeadroom is the slack the serving-path guards give the
// post_pass baseline: the request-correlation middleware adds a
// handful of fixed allocations per request that the baseline predates
// (the repository-root guard uses the same multiplier).
const serverAllocHeadroom = 1.3

// TestBenchGuard guards the wizard-driving wire path: it runs
// BenchmarkServerDialog as it stands and checks its allocs/op against
// the post_pass entry of BENCH_server_baseline.json. Run it with
//
//	MUSE_BENCH_GUARD=1 go test -run TestBenchGuard ./internal/server
//
// (or `make bench-guard`, which runs it with the repository-root
// guard); unset, the test skips so the ordinary suite stays fast.
func TestBenchGuard(t *testing.T) {
	if os.Getenv("MUSE_BENCH_GUARD") == "" {
		t.Skip("set MUSE_BENCH_GUARD=1 to run the serving-path allocation guard")
	}
	data, err := os.ReadFile("../../BENCH_server_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var base struct {
		Benchmarks map[string]struct {
			PostPass struct {
				AllocsPerOp int64 `json:"allocs_per_op"`
			} `json:"post_pass"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatalf("BENCH_server_baseline.json: %v", err)
	}
	const name = "BenchmarkServerDialog"
	want := base.Benchmarks[name].PostPass.AllocsPerOp
	if want == 0 {
		t.Fatalf("%s: no post_pass baseline entry", name)
	}
	limit := int64(float64(want) * serverAllocHeadroom)
	if got := testing.Benchmark(BenchmarkServerDialog).AllocsPerOp(); got > limit {
		t.Errorf("%s: %d allocs/op exceeds baseline %d + headroom (limit %d)", name, got, want, limit)
	} else {
		fmt.Printf("bench-guard %-40s %8d allocs/op (baseline %d, limit %d)\n", name, got, want, limit)
	}
}
