// Command perfbench is the repository's end-to-end benchmark. Each
// invocation runs one workload in its own process, from a seed:
//
//	go run . --workload scenario --seed 1 --seconds 20 --trace 0
//
// (perfbench/run.sh builds it from a checkout and passes the same
// flags.) The untraced run (--trace 0) times whole ops and prints the
// end-to-end metrics; the traced run (--trace 1) wraps the hooks the
// modules already export — scenario.Build/Finish, Spec.Probe,
// Spec.Trace, Trainer.Journal/Metrics, the shardnet.Server.Eval
// function value and the listener handed to the server — and prints
// per-layer counts, timings and span self times. Nothing inside the
// program is instrumented for the benchmark.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The line before it is
// the run's provenance. Every op checks its own output; a wrong result
// is counted as a failed op, and the run goes on.
//
// Steadiness rules, each answering a measured source of noise: every
// op of a workload does the same fixed work (a scenario op is a full
// pass over the matrix, a training op a cold Train of one config and
// seed); throughput is counted in simulated seconds and slots, never
// host events; counts come only from traced runs and timings only from
// untraced ones; and load stays within the machine's CPU count.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// processStart approximates the process start for setup_s: package
// initialization runs before main.
var processStart = time.Now()

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one invocation's configuration.
type options struct {
	workload   string
	seed       uint64
	seconds    int
	trace      bool
	cpuprofile string
	outDir     string

	// faultOp, when positive, corrupts the output of that op (1-based)
	// before its check; only the self-tests set it.
	faultOp int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", 20, "how long the run measures, in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs traced and prints per-layer metrics; 0 prints end-to-end metrics")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "instead of measuring, profile untimed ops for --seconds into this file and print the profile folded by layer")
	fs.StringVar(&o.outDir, "out", ".bench_build/perfbench", "directory for the traced run's span dump")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	o.trace = traceFlag == 1
	if o.seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1")
		return 2
	}
	if os.Getenv(setUpOnlyEnv) == "1" {
		if err := setUpOnly(o, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if o.cpuprofile != "" {
		if err := profileRun(o, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	res, prov, err := execute(o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := printResult(stdout, prov, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// provenance identifies what produced a run's figures.
type provenance struct {
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	Ops        int    `json:"ops"`
	TimedOps   int    `json:"timed_ops"` // samples behind op_ms_p50/p90
	SetUps     int    `json:"setups"`    // samples behind setup_s
	// CalibMs is a fixed CPU-and-memory kernel's time, taken after the
	// ops: a reading of the host's speed during the run, against which
	// a run-to-run spread can be checked.
	CalibMs    float64  `json:"calib_ms"`
	Unobserved []string `json:"unobserved,omitempty"`
}

func newProvenance(o options) provenance {
	p := provenance{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Traced:     o.trace,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				p.Dirty = s.Value == "true"
			}
		}
	}
	return p
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
