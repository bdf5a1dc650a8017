package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// instance is one set-up workload: the inputs, references and servers
// its ops share.
type instance interface {
	// op runs one operation and checks its output against the
	// workload's reference, returning an error for a wrong result.
	// With a nil tracer it is a timed op; otherwise it records spans
	// and counts into tr. corrupt perturbs the output before the check.
	op(tr *tracer, corrupt bool) (delivered, error)
	close()
}

// delivered is the user-visible work one op completed.
type delivered struct {
	slots      int     // scenario evaluations, cache hits included
	simSeconds float64 // simulated seconds those evaluations cover
}

type workload struct {
	name string
	// setup builds the workload's inputs and references from seed.
	// traced says whether the run will trace, so hooks that only a
	// traced run reads are left out of untraced ones.
	setup func(seed uint64, traced bool) (instance, error)
}

// workloads are the benchmark's named input sets. Why each exists is
// recorded in BENCHMARK.json.
var workloads = []workload{
	{"scenario", setupScenario},
	{"train", setupTrain},
	{"shardnet", setupShardnet},
}

func lookup(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames())
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// coldSetUps is how many set-ups setup_s is the median of. The run's
// own set-up is the first; the others run after the ops, each in a
// fresh process of the same binary (see setUpOnly), so every set-up is
// cold, timed from its own process start, and none adds to the run's
// memory.
const coldSetUps = 3

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// execute sets the workload up, runs ops for the requested time and
// reduces them to the run's metrics.
func execute(o options, log io.Writer) (result, provenance, error) {
	prov := newProvenance(o)
	w, err := lookup(o.workload)
	if err != nil {
		return result{}, prov, err
	}

	inst, err := w.setup(o.seed, o.trace)
	if err != nil {
		return result{}, prov, fmt.Errorf("set up %s: %w", w.name, err)
	}
	setupSecs := []float64{time.Since(processStart).Seconds()}
	defer inst.close()

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var (
		ops, failed       int
		timed, tracedWall []float64 // op wall times, ms
		slotRate, simRate []float64 // per-op throughput, 1/s and s/s
	)
	runOne := func(t *tracer) time.Duration {
		ops++
		d, wall, err := runOp(inst, t, ops == o.faultOp)
		if err != nil {
			failed++
			fmt.Fprintf(log, "perfbench: %s op %d failed: %v\n", w.name, ops, err)
		}
		if t == nil {
			timed = append(timed, ms(wall))
			slotRate = append(slotRate, float64(d.slots)/wall.Seconds())
			simRate = append(simRate, d.simSeconds/wall.Seconds())
		}
		return wall
	}
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for ops == 0 || time.Now().Before(deadline) {
		if tr != nil {
			// A traced op, then an untraced one: the pair gives the
			// tracing overhead and the untraced wall that ns/event and
			// us/slot divide.
			tr.beginOp()
			var before runtime.MemStats
			runtime.ReadMemStats(&before)
			wall := runOne(tr)
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			tr.endOp()
			tr.add("runtime.alloc_mb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/1e6)
			tr.add("runtime.mallocs_per_op", float64(after.Mallocs-before.Mallocs))
			tr.add("runtime.gc_per_op", float64(after.NumGC-before.NumGC))
			tracedWall = append(tracedWall, ms(wall))
		}
		runOne(nil)
	}
	prov.Ops = ops
	prov.TimedOps = len(timed)

	res := result{Correct: failed == 0, Attempted: ops, Failed: failed, Metrics: map[string]value{}}
	if tr == nil {
		// Read before the cold set-ups and the calibration, which are
		// not the workload's memory.
		rss := maxRSSMB()
		for len(setupSecs) < coldSetUps {
			s, err := coldSetUp(o)
			if err != nil {
				return result{}, prov, err
			}
			setupSecs = append(setupSecs, s)
		}
		prov.SetUps = len(setupSecs)
		prov.CalibMs = calibrate()
		// Throughputs are per-op medians, like the op times: a host
		// stall that covers part of a run moves a total-over-total
		// rate but not the median op.
		vals := map[string]float64{
			"setup_s":     median(setupSecs),
			"op_ms_p50":   median(timed),
			"op_ms_p90":   nearestRank(timed, 0.9),
			"sim_s_per_s": median(simRate),
			"slots_per_s": median(slotRate),
			"max_rss_mb":  rss,
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = value{vals[m.name], m.unit}
		}
		return res, prov, nil
	}

	prov.CalibMs = calibrate()
	vals := tr.layerMetrics(len(tracedWall), median(timed), median(tracedWall))
	for _, m := range perLayer {
		v, ok := vals[m.name]
		if !ok {
			prov.Unobserved = append(prov.Unobserved, m.name)
		}
		res.Metrics[m.name] = value{v, m.unit}
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return result{}, prov, fmt.Errorf("span dump: %w", err)
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return result{}, prov, fmt.Errorf("span dump: %w", err)
	}
	if err := tr.write(f, prov); err != nil {
		f.Close()
		return result{}, prov, err
	}
	if err := f.Close(); err != nil {
		return result{}, prov, fmt.Errorf("span dump: %w", err)
	}
	return res, prov, nil
}

// setUpOnlyEnv, set in a process's environment, makes it set its
// workload up once, print the seconds that took from its own start,
// and exit: coldSetUp's child.
const setUpOnlyEnv = "PERFBENCH_SETUP_ONLY"

// coldSetUp sets o's workload up in a fresh process of this binary and
// returns the seconds from that process's start to the end of its
// set-up.
func coldSetUp(o options) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, fmt.Errorf("cold set-up: %w", err)
	}
	cmd := exec.Command(exe, "--workload", o.workload, "--seed", strconv.FormatUint(o.seed, 10))
	cmd.Env = append(os.Environ(), setUpOnlyEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("cold set-up of %s: %w", o.workload, err)
	}
	s, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	if err != nil {
		return 0, fmt.Errorf("cold set-up of %s printed %q", o.workload, out)
	}
	return s, nil
}

// setUpOnly is the body of a coldSetUp child.
func setUpOnly(o options, stdout io.Writer) error {
	w, err := lookup(o.workload)
	if err != nil {
		return err
	}
	inst, err := w.setup(o.seed, false)
	if err != nil {
		return fmt.Errorf("set up %s: %w", w.name, err)
	}
	secs := time.Since(processStart).Seconds()
	inst.close()
	_, err = fmt.Fprintln(stdout, strconv.FormatFloat(secs, 'g', -1, 64))
	return err
}

// runOp runs one op, turning a panic inside the program into a failed
// op rather than a crashed run.
func runOp(inst instance, tr *tracer, corrupt bool) (d delivered, wall time.Duration, err error) {
	start := time.Now()
	defer func() {
		wall = time.Since(start)
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	d, err = inst.op(tr, corrupt)
	return d, wall, err
}

// layerMetrics reduces a traced run's counters, samples and spans to
// the per-layer metrics it observed, per traced op. untracedMs and
// tracedMs are the run's median op walls without and with tracing.
func (t *tracer) layerMetrics(ops int, untracedMs, tracedMs float64) map[string]float64 {
	m := map[string]float64{}
	n := float64(ops)
	for k, v := range t.sums {
		if _, ok := unitOf(k); ok {
			m[k] = v / n
		}
	}
	for k, v := range t.samples {
		if _, ok := unitOf(k); ok {
			m[k] = median(v)
		}
	}
	if ev, ok := m["sim.events_per_op"]; ok {
		m["sim.events_per_sim_s"] = t.sums["sim.events_per_op"] / t.sums["raw.sim_seconds"]
		m["sim.ns_per_event"] = untracedMs * 1e6 / ev
		m["sim.heap_depth_mean"] = t.sums["raw.heap_depth_sum"] / t.sums["raw.heap_depth_samples"]
		m["netsim.events_per_packet"] = ev / m["netsim.packets_per_op"]
	}
	if hits, ok := t.sums["raw.cache_hits"]; ok {
		m["remy.cache_hit_ratio"] = hits / t.sums["remy.slots_per_op"]
	}
	if sim := m["remy.slots_simulated_per_op"]; sim > 0 {
		m["remy.us_per_simulated_slot"] = untracedMs * 1e3 / sim
	}
	if gets, ok := t.sums["raw.server_gets"]; ok {
		m["shardnet.cache_hit_ratio"] = t.sums["raw.server_hits"] / gets
	}
	for layer, ns := range t.selfNanos() {
		m["self_ms."+layer+"_per_op"] = float64(ns) / 1e6 / n
	}
	m["bench.trace_overhead_ms_per_op"] = tracedMs - untracedMs
	return m
}

// unitOf looks a per-layer metric up by name.
func unitOf(name string) (string, bool) {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit, true
		}
	}
	return "", false
}

func printResult(w io.Writer, prov provenance, res result) error {
	p, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	r, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "provenance %s\n%s\n", p, r)
	return err
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// median is the middle value, or the mean of the two middle values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// nearestRank is the p-quantile by the nearest-rank rule: the smallest
// sample with at least p of the samples at or below it.
func nearestRank(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// maxRSSMB is the process's peak resident set in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}
