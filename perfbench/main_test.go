package main

// Self-tests of the benchmark: its output vocabulary matches
// BENCHMARK.json, traced counts repeat exactly, a wrong result ends as
// a failed op in a completed run, the shardnet workload's pinned tree
// is the in-process one, and the CPU profile folds into layers. Run
// with `go test` from this directory; they take a minute or two, most
// of it in the train workload's ops.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"learnability/internal/remy"
	"learnability/internal/units"
)

// TestMain lets the test binary serve as a cold set-up's child, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if os.Getenv(setUpOnlyEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// named returns BENCHMARK.json's metrics of one kind as name -> unit.
func named(t *testing.T, traced bool) map[string]string {
	f := readBenchmarkFile(t)
	out := map[string]string{}
	if traced {
		for _, m := range f.PerLayer {
			out[m.Name] = m.Unit
		}
	} else {
		for _, m := range f.EndToEnd {
			out[m.Name] = m.Unit
		}
	}
	return out
}

// exactCounts are the per-layer metrics that must repeat bit for bit
// between two traced runs of one seed: pure functions of the inputs.
var exactCounts = map[string]bool{
	"sim.events_per_op":           true,
	"sim.events_per_sim_s":        true,
	"sim.heap_depth_mean":         true,
	"netsim.packets_per_op":       true,
	"netsim.retransmits_per_op":   true,
	"netsim.timeouts_per_op":      true,
	"netsim.events_per_packet":    true,
	"queue.drops_per_op":          true,
	"queue.ce_marks_per_op":       true,
	"remycc.lookups_per_op":       true,
	"remycc.whiskers":             true,
	"remy.slots_per_op":           true,
	"remy.slots_simulated_per_op": true,
	"remy.cache_hit_ratio":        true,
	"shard.jobs_per_op":           true,
	"shard.retries_per_op":        true,
	"shard.wire_bytes_per_op":     true,
	"shardnet.cache_hit_ratio":    true,
}

// spanLayers are the layers the workloads record spans at: the
// benchmark's own loop and the modules whose public functions it
// calls. Each needs a self_ms.<layer>_per_op metric.
var spanLayers = []string{"bench", "scenario", "remy", "shardnet"}

// runWorkload runs one workload in-process and decodes its last line.
func runWorkload(t *testing.T, o options) result {
	t.Helper()
	args := []string{"--workload", o.workload, "--seed", "7", "--seconds", "1", "--out", t.TempDir()}
	if o.trace {
		args = append(args, "--trace", "1")
	}
	var stdout, stderr bytes.Buffer
	var code int
	if o.faultOp > 0 {
		// The fault hook has no flag; drive execute directly.
		o.seed, o.seconds, o.outDir = 7, 1, t.TempDir()
		res, prov, err := execute(o, &stderr)
		if err != nil {
			t.Fatalf("%s: %v", o.workload, err)
		}
		if err := printResult(&stdout, prov, res); err != nil {
			t.Fatal(err)
		}
	} else {
		code = run(args, &stdout, &stderr)
	}
	if code != 0 {
		t.Fatalf("%s exited %d: %s", o.workload, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[len(lines)-2], "provenance ") {
		t.Fatalf("%s: want a provenance line before the result, got %q", o.workload, stdout.String())
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line: %v", o.workload, err)
	}
	return res
}

// TestTablesMatchBenchmarkJSON holds the program's metric tables and
// workload list in step with BENCHMARK.json.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program %s", got, want)
	}
	for _, tc := range []struct {
		traced bool
		table  []metric
	}{{false, endToEnd}, {true, perLayer}} {
		want := named(t, tc.traced)
		if len(want) != len(tc.table) {
			t.Errorf("traced=%v: BENCHMARK.json names %d metrics, program %d", tc.traced, len(want), len(tc.table))
		}
		for _, m := range tc.table {
			if u, ok := want[m.name]; !ok || u != m.unit {
				t.Errorf("traced=%v: %s (%s) not named in BENCHMARK.json with that unit", tc.traced, m.name, m.unit)
			}
		}
	}
	for _, l := range spanLayers {
		if _, ok := unitOf("self_ms." + l + "_per_op"); !ok {
			t.Errorf("span layer %s has no self_ms metric", l)
		}
	}
}

// TestRunsPrintNamedMetricsAndRepeatCounts runs every workload untraced
// once and traced twice. Each run must be correct and print exactly
// the metrics BENCHMARK.json names, each with its unit; the two traced
// runs must agree exactly on every count.
func TestRunsPrintNamedMetricsAndRepeatCounts(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			check := func(res result, traced bool) {
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
				}
				want := named(t, traced)
				if len(res.Metrics) != len(want) {
					t.Errorf("traced=%v: printed %d metrics, BENCHMARK.json names %d", traced, len(res.Metrics), len(want))
				}
				for name, v := range res.Metrics {
					if u, ok := want[name]; !ok || u != v.Unit {
						t.Errorf("traced=%v: printed %s (%s), not named with that unit", traced, name, v.Unit)
					}
				}
			}
			check(runWorkload(t, options{workload: w}), false)
			a := runWorkload(t, options{workload: w, trace: true})
			b := runWorkload(t, options{workload: w, trace: true})
			check(a, true)
			check(b, true)
			for name := range exactCounts {
				if a.Metrics[name].Value != b.Metrics[name].Value {
					t.Errorf("%s differs between traced runs: %v vs %v", name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
		})
	}
}

// TestInjectedFaultIsAFailedOp corrupts the first op's output: the
// run must complete, count exactly that op as failed and report the
// run incorrect. The first op is the one no earlier op could serve as
// a reference for; each is checked against the work pinned for its
// workload. Traced runs pair a traced op with an untimed one, so even
// a one-second run holds two ops.
func TestInjectedFaultIsAFailedOp(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			res := runWorkload(t, options{workload: w, trace: true, faultOp: 1})
			if res.Correct || res.Failed != 1 || res.Attempted < 2 {
				t.Fatalf("correct=%v attempted=%d failed=%d; want an incorrect run with one failed op of at least two",
					res.Correct, res.Attempted, res.Failed)
			}
		})
	}
}

// TestShardnetTreeIsInProcessTree trains the shardnet workload's config
// in-process: its tree must be the one every op through the workers is
// checked against.
func TestShardnetTreeIsInProcessTree(t *testing.T) {
	tr := &remy.Trainer{Cfg: trainConfig(units.Second), Seed: trainSeed, Workers: runtime.NumCPU()}
	out, err := runTrain(nil, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.check(shardnetSlots, shardnetWhiskers, shardnetTreeSHA); err != nil {
		t.Fatal(err)
	}
}

// TestProfileFoldsByLayer profiles scenario ops and checks the fold
// accounts for every sample and puts the simulator's work in its layers.
func TestProfileFoldsByLayer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	var stdout bytes.Buffer
	if err := profileRun(options{workload: "scenario", seed: 7, seconds: 1, cpuprofile: path}, &stdout); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Share map[string]float64 `json:"share"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, s := range out.Share {
		total += s
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("layer shares sum to %v", total)
	}
	if sim := out.Share["sim"] + out.Share["netsim"]; sim < 0.2 {
		t.Errorf("simulator layers hold %.2f of a scenario op's CPU: %v", sim, out.Share)
	}
}

func TestCoveredClipsAndMergesIntervals(t *testing.T) {
	for _, tc := range []struct {
		lo, hi int64
		iv     [][2]int64
		want   int64
	}{
		{0, 10, nil, 0},
		{0, 10, [][2]int64{{2, 4}, {3, 6}}, 4},
		{0, 10, [][2]int64{{8, 12}, {-3, 1}}, 3},
		{0, 10, [][2]int64{{1, 2}, {4, 5}, {1, 9}}, 8},
	} {
		if got := covered(tc.lo, tc.hi, tc.iv); got != tc.want {
			t.Errorf("covered(%d, %d, %v) = %d, want %d", tc.lo, tc.hi, tc.iv, got, tc.want)
		}
	}
}
