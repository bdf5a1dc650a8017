package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"time"
)

// profileRun sets the workload up once, profiles untimed, untraced ops
// for o.seconds into o.cpuprofile, and folds the samples into layers.
// The fold, with the run's provenance, goes to stdout and to
// o.cpuprofile+".layers.json".
func profileRun(o options, stdout io.Writer) error {
	w, err := lookup(o.workload)
	if err != nil {
		return err
	}
	prov := newProvenance(o)
	inst, err := w.setup(o.seed, false)
	if err != nil {
		return fmt.Errorf("set up %s: %w", w.name, err)
	}
	defer inst.close()
	f, err := os.Create(o.cpuprofile)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("cpu profile: %w", err)
	}
	var opErr error
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for prov.Ops == 0 || time.Now().Before(deadline) {
		prov.Ops++
		if _, _, err := runOp(inst, nil, false); err != nil && opErr == nil {
			opErr = fmt.Errorf("profiled op %d: %w", prov.Ops, err)
		}
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	if opErr != nil {
		return opErr
	}
	fold, err := foldProfile(o.cpuprofile)
	if err != nil {
		return fmt.Errorf("fold cpu profile: %w", err)
	}
	out, err := json.MarshalIndent(struct {
		Provenance provenance         `json:"provenance"`
		Share      map[string]float64 `json:"share"` // fraction of CPU time per layer
	}{prov, fold}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(o.cpuprofile+".layers.json", append(out, '\n'), 0o644); err != nil {
		return fmt.Errorf("cpu profile fold: %w", err)
	}
	_, err = fmt.Fprintf(stdout, "%s\n", out)
	return err
}

// repoLayers maps the repository's package paths to layer names; the
// longest matching prefix wins.
var repoLayers = map[string]string{
	"learnability/internal/sim":           "sim",
	"learnability/internal/netsim":        "netsim",
	"learnability/internal/packet":        "netsim",
	"learnability/internal/queue":         "queue",
	"learnability/internal/cc":            "cc",
	"learnability/internal/cc/remycc":     "remycc",
	"learnability/internal/scenario":      "scenario",
	"learnability/internal/topo":          "scenario",
	"learnability/internal/workload":      "scenario",
	"learnability/internal/remy":          "remy",
	"learnability/internal/remy/shard":    "shard",
	"learnability/internal/remy/shardnet": "shardnet",
	"learnability/internal/telemetry":     "telemetry",
	"learnability/internal/rng":           "rng",
	"learnability/internal/units":         "units",
	"learnability/perfbench":              "bench",
	"main":                                "bench",
}

// layerOf names the layer of a fully qualified function name, or ""
// for code outside the repository.
func layerOf(fn string) string {
	best, layer := 0, ""
	for prefix, l := range repoLayers {
		if len(prefix) > best && (strings.HasPrefix(fn, prefix+".") || strings.HasPrefix(fn, prefix+"/")) {
			best, layer = len(prefix), l
		}
	}
	return layer
}

// gcRoots are runtime frames whose presence on a stack marks the
// sample as garbage-collector work.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart"}

// classify folds one stack, leaf first, to a layer: garbage collection
// wherever it runs, other runtime leaves to "runtime", and any other
// code outside the repository (hashing, syscalls, encoding) to the
// nearest repository frame that called it.
func classify(stack []string) string {
	for _, fn := range stack {
		for _, g := range gcRoots {
			if fn == g {
				return "runtime.gc"
			}
		}
	}
	if len(stack) > 0 && strings.HasPrefix(stack[0], "runtime.") {
		return "runtime"
	}
	for _, fn := range stack {
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	return "other"
}

// foldProfile reads a CPU profile through `go tool pprof -traces`,
// which prints each sample's CPU time and its stack leaf first, and
// returns each layer's share of the sampled CPU time.
func foldProfile(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	byLayer := map[string]time.Duration{}
	var total, value time.Duration
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			byLayer[classify(stack)] += value
			total += value
		}
		stack = stack[:0]
	}
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		// A sample's first line is indented and starts with its value;
		// the rest of its stack is indented further, one frame a line.
		if !strings.HasPrefix(line, " ") {
			continue
		}
		f := strings.Fields(line)
		if len(stack) == 0 {
			if len(f) < 2 {
				continue
			}
			if value, err = time.ParseDuration(f[0]); err != nil {
				return nil, fmt.Errorf("go tool pprof: sample value %q: %w", f[0], err)
			}
			f = f[1:]
		}
		stack = append(stack, f[0])
	}
	flush()
	if total == 0 {
		return nil, errors.New("profile holds no samples")
	}
	share := map[string]float64{}
	for l, v := range byLayer {
		share[l] = float64(v) / float64(total)
	}
	return share, nil
}
