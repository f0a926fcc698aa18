// Command lsbench is the end-to-end benchmark of the load shedding
// monitor. It drives the public pkg/loadshed API in-process — the same
// StreamContext + RollingStats path that `lsd -serve` runs — on one of
// two workloads, checks the outputs against an untimed verification
// run, and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	lsbench --workload cesca2-replay --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 makes the traced
// run and reports the per-layer metrics instead. See README.md for the
// metric definitions and why each workload exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	// sinkSpin injects a busy-wait of this length into every bin's
	// sink delivery: the sensitivity self-check's synthetic slowdown,
	// set only by that test.
	sinkSpin time.Duration
	log      io.Writer
}

// outcome is what a workload reports before the result is assembled.
type outcome struct {
	res    result
	params map[string]any
}

type workload struct {
	name string
	run  func(o options) (*outcome, error)
}

var workloads = []workload{
	{"cesca2-replay", runCESCA2Replay},
	{"ddos-cluster", runDDoSCluster},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: cesca2-replay or ddos-cluster")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 20, "length of the timed region")
	traceFlag := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "lsbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "lsbench: --seconds must be positive")
		return 2
	}
	o := options{
		workload: *name, seed: *seed, seconds: *seconds,
		traced: *traceFlag == 1, log: stderr,
	}
	out, err := runWorkload(o)
	if err != nil {
		fmt.Fprintln(stderr, "lsbench:", err)
		return 1
	}
	st, err := json.Marshal(newStamp(o, out.params))
	if err != nil {
		fmt.Fprintln(stderr, "lsbench:", err)
		return 1
	}
	line, err := json.Marshal(out.res)
	if err != nil {
		fmt.Fprintln(stderr, "lsbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "stamp %s\n", st)
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func runWorkload(o options) (*outcome, error) {
	for _, w := range workloads {
		if w.name == o.workload {
			return w.run(o)
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have cesca2-replay, ddos-cluster)", o.workload)
}
