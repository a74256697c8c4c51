// Command perfbench is the repository's end-to-end benchmark: three
// workloads that drive Muse the way its users do, each measured from
// outside through the layers' public functions, with every output
// checked against the library.
//
//	perfbench -workload fig-wire|mondial-durable|exchange -seed N -seconds S -trace 0|1
//
// With -trace 0 the run reports the end-to-end metrics; with -trace 1
// it runs the workload twice, untraced and then with every span kept
// in memory, and reports the per-layer metrics of the traced half
// (README.md lists them and the end-to-end metric each should move).
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The line before it records the machine and configuration. The exit
// status is non-zero if the workload could not be set up or run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what every workload receives.
type config struct {
	seed    int64
	seconds float64
	out     string // directory for WAL files and span dumps
}

// report is what one timed phase of a workload produces.
type report struct {
	attempted, failed int64
	// e2e and layers hold metric values by name; units come from the
	// tables in layers.go.
	e2e    map[string]float64
	layers map[string]float64
	// env records configuration specific to the workload.
	env map[string]any
	// problems lists output mismatches, for the log.
	problems []string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layers: map[string]float64{}, env: map[string]any{}}
}

// fail counts one failed op and keeps the first few reasons.
func (r *report) fail(format string, args ...any) { r.failN(1, format, args...) }

// failN counts n failed ops with one reason.
func (r *report) failN(n int64, format string, args ...any) {
	r.failed += n
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// workload runs one timed phase. traced asks for the per-layer
// instrumentation; it is false for the phases end-to-end metrics come
// from.
type workload func(cfg config, traced bool) (*report, error)

var workloads = map[string]workload{
	"fig-wire":        runFigWire,
	"mondial-durable": runDurable,
	"exchange":        runExchange,
}

func main() {
	name := flag.String("workload", "", "workload: fig-wire, mondial-durable or exchange")
	seed := flag.Int64("seed", 1, "seed the workload's inputs derive from")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build/perfbench", "directory for WAL files and span dumps")
	flag.Parse()

	if err := run(*name, *seed, *seconds, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace bool, out string) error {
	wl, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	out, err := filepath.Abs(out)
	if err != nil {
		return err
	}
	cfg := config{seed: seed, seconds: seconds, out: out}

	var res *result
	var env map[string]any
	if !trace {
		rep, err := wl(cfg, false)
		if err != nil {
			return err
		}
		res, env = finish(rep, rep.e2e, e2eUnits), rep.env
	} else {
		// The untraced half gives the baseline the tracing overhead is
		// measured against; the traced half gives every layer metric.
		half := cfg
		half.seconds = seconds / 2
		plain, err := wl(half, false)
		if err != nil {
			return err
		}
		traced, err := wl(half, true)
		if err != nil {
			return err
		}
		traced.layers["obs.trace_overhead_pct"] =
			100 * (traced.e2e["op_p50_ms"]/plain.e2e["op_p50_ms"] - 1)
		traced.attempted += plain.attempted
		traced.failed += plain.failed
		traced.problems = append(plain.problems, traced.problems...)
		res, env = finish(traced, traced.layers, layerUnits), traced.env
		printLayerTable(traced, plain)
	}

	env["workload"] = name
	env["seed"] = seed
	env["seconds"] = seconds
	env["trace"] = trace
	env["nproc"] = runtime.NumCPU()
	env["gomaxprocs"] = runtime.GOMAXPROCS(0)
	env["go"] = runtime.Version()
	envLine, err := json.Marshal(map[string]any{"env": env})
	if err != nil {
		return err
	}
	fmt.Println(string(envLine))
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// finish assembles the result from a report's metrics, in the order
// of the unit table (every metric of the table must be present).
func finish(rep *report, values map[string]float64, units []unitOf) *result {
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: mismatch:", p)
	}
	res := &result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metric, len(units)),
	}
	for _, u := range units {
		v, ok := values[u.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			// A metric the run could not measure is a defect of the
			// run, not a value.
			fmt.Fprintf(os.Stderr, "perfbench: metric %s not measured\n", u.name)
			res.Correct = false
			v = 0
		}
		res.Metrics[u.name] = metric{Value: v, Unit: u.unit}
	}
	return res
}

// printLayerTable prints, for a traced run, each layer metric next to
// the end-to-end metric it should move (read from the untraced half).
func printLayerTable(traced, plain *report) {
	fmt.Println("# layer metric | value | moves | untraced value")
	for _, u := range layerUnits {
		fmt.Printf("# %-34s %14.4f %-6s -> %-16s %12.4f\n",
			u.name, traced.layers[u.name], u.unit, u.moves, plain.e2e[u.moves])
	}
}

// deadline returns when a phase that starts now should stop.
func (c config) deadline() time.Time {
	return time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
}
