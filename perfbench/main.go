// Command perfbench is the repository benchmark: three fixed-work,
// seeded workloads that measure what the lab's two kinds of user wait
// on, each checked against stored reference outputs.
//
//   - tvla-o1: first-order fixed-vs-random TVLA on the default
//     protected point, full budget, through the sharded lane-batched
//     campaign engine (what `scalab tvla` runs);
//   - masked-o2: second-order TVLA on the boolean1-masked point with
//     RPC off (`scalab tvla -masking boolean1 -order 2 -rpc=false`);
//   - fleet: fleet.Run on the built-in four-cohort hospital fleet
//     (`fleetlab run`).
//
// One invocation runs one workload in its own process:
//
//	bash perfbench/run.sh --workload tvla-o1 --seed 1 --seconds 36 --trace 0
//
// It times the workload's set-up several times (setup_s is their
// median), then repeats the workload's fixed unit of work until
// --seconds have passed, checks every unit's output and prints
// human-readable lines followed by one JSON object on the last line of
// standard output. --trace 0 reports the end-to-end metrics; --trace 1
// instead runs one untraced unit and one unit of the workload's traced
// twin, whatever --seconds says, and reports per-layer metrics (see
// traced.go). --workload all runs every workload in a child process of
// its own and prints one row per workload.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	// workers is the campaign and fleet worker count: nproc capped at
	// 2, the size of the box the workloads were sized on.
	workers int
	// quick shrinks every workload to a smoke-test size whose outputs
	// are not compared with the references; only the package's tests
	// set it.
	quick  bool
	gitSHA string
	outDir string
}

// metric is one reported figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames()+" or all")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed; the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", 36, "how long the measured loop repeats the workload's unit of work")
	fs.IntVar(&o.trace, "trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	fs.StringVar(&o.gitSHA, "git-sha", "unknown", "source revision stamped on the result")
	fs.StringVar(&o.outDir, "out-dir", ".bench_build", "directory for traced-run artifacts (spans, CPU profiles)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case o.workload == "":
		return o, errors.New("--workload is required")
	case o.workload != "all" && lookupWorkload(o.workload) == nil:
		return o, fmt.Errorf("unknown workload %q (want %s or all)", o.workload, workloadNames())
	case o.trace != 0 && o.trace != 1:
		return o, fmt.Errorf("--trace %d: want 0 or 1", o.trace)
	case o.seconds < 1:
		return o, fmt.Errorf("--seconds %d: want at least 1", o.seconds)
	}
	o.workers = defaultWorkers()
	return o, nil
}

func defaultWorkers() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if o.workload == "all" {
		if err := runAll(o, args, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	res, err := runWorkload(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runWorkload runs one workload in this process and returns its
// result.
func runWorkload(o options, out io.Writer) (result, error) {
	w := lookupWorkload(o.workload)
	printStamp(out, o)
	if o.trace == 1 {
		return traced(w, o, out)
	}
	return measure(w, o, out)
}
