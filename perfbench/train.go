package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"learnability/internal/cc/remycc"
	"learnability/internal/remy"
	"learnability/internal/scenario"
	"learnability/internal/telemetry"
	"learnability/internal/units"
)

// The train workload: one op is a cold Trainer.Train of the remytrain
// verify recipe — dumbbell, 10-100 Mbps, 150 ms, two senders, 5-BDP
// drop-tail, 5 s runs, two replicas, budget 2/1/2, the default slot
// cache, Workers = CPU count — on a fresh Trainer. This is the paper's
// cost centre: nearly all of its CPU is scenario.Run under the search.
//
// Every op uses the same training seed. Train's cost is a property of
// the seed's search path — at this budget, seeds 42-47 take from 40 ms
// to 5.7 s, and seed 43 stops at generation 0 — so the seed is pinned
// to the recipe's 42 and --seed does not enter this workload's inputs.

// trainSeed is the verify recipe's seed.
const trainSeed = 42

// The work one train op must do: every op is checked against these,
// so an op that does less — an early stop, fewer slots evaluated, a
// different tree — is a failed op, not a speed-up.
const (
	trainSlots     = 1132 // slots requested
	trainSimulated = 1072 // slots simulated: cache misses
	trainWhiskers  = 31
	trainTreeSHA   = "f556f8d9152b424dcf35f1dc6521589827f7d9d0c628ccc80b798a59dc2753fa"
)

var trainBudget = remy.Budget{Generations: 2, OptPasses: 1, MovesPerWhisker: 2}

// trainConfig is the verify recipe's distribution with runs of dur.
func trainConfig(dur units.Duration) remy.Config {
	return remy.Config{
		Topology:     scenario.Dumbbell,
		LinkSpeedMin: 10 * units.Mbps,
		LinkSpeedMax: 100 * units.Mbps,
		MinRTTMin:    testRTT,
		MinRTTMax:    testRTT,
		SendersMin:   2,
		SendersMax:   2,
		MeanOn:       units.Second,
		MeanOff:      units.Second,
		Buffering:    scenario.FiniteDropTail,
		BufferBDP:    testBDP,
		Delta:        1,
		Mask:         remycc.AllSignals(),
		Duration:     dur,
		Replicas:     2,
	}
}

type trainBench struct {
	cfg remy.Config
}

// setupTrain validates the recipe and warms the process with the op's
// own first two generations (the same config, seed, passes and moves),
// so the first timed op finds the scenario world pool and draw memo as
// later ops do.
func setupTrain(uint64, bool) (instance, error) {
	cfg := trainConfig(5 * units.Second)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &remy.Trainer{Cfg: cfg, Seed: trainSeed, Workers: runtime.NumCPU()}
	warm := trainBudget
	warm.Generations = 1
	t.Train(warm)
	return &trainBench{cfg: cfg}, nil
}

func (b *trainBench) close() {}

func (b *trainBench) op(tr *tracer, corrupt bool) (delivered, error) {
	t := &remy.Trainer{Cfg: b.cfg, Seed: trainSeed, Workers: runtime.NumCPU()}
	out, err := runTrain(tr, t)
	if err != nil {
		return delivered{}, err
	}
	cs := t.LocalCacheStats()
	d := delivered{slots: int(out.slots), simSeconds: float64(out.slots) * b.cfg.Duration.Seconds()}
	if corrupt {
		out.tree[len(out.tree)-1] ^= 1
	}
	if err := out.check(trainSlots, trainWhiskers, trainTreeSHA); err != nil {
		return d, err
	}
	if cs.Misses != trainSimulated {
		return d, fmt.Errorf("op simulated %d slots, want %d", cs.Misses, trainSimulated)
	}
	if tr != nil {
		tr.add("remy.slots_simulated_per_op", float64(cs.Misses))
		tr.add("raw.cache_hits", float64(cs.Hits))
	}
	return d, nil
}

// trainOutput is what one Train call produced, seen from outside.
type trainOutput struct {
	tree     []byte // binary encoding of the trained tree
	slots    int64
	whiskers int
	// last is the journal's final generation record (traced runs only):
	// its lane counters are cumulative over the call.
	last remy.GenerationRecord
}

// runTrain runs t.Train on the workload budget. Traced, it attaches a
// journal and a metrics registry, records the call and its generations
// as spans (generations rebuilt from the journal's wall times, which
// run back to back from the call's start), and counts slots and
// whiskers.
func runTrain(tr *tracer, t *remy.Trainer) (trainOutput, error) {
	var journal bytes.Buffer
	var id int
	if tr != nil {
		t.Journal = telemetry.NewJournal(&journal)
		t.Metrics = telemetry.NewRegistry()
		id = tr.begin("remy.Train", "remy", tr.root)
	}
	start := time.Now()
	tree := t.Train(trainBudget)
	if tr != nil {
		tr.end(id)
	}
	enc, err := tree.MarshalBinary()
	if err != nil {
		return trainOutput{}, fmt.Errorf("encode trained tree: %w", err)
	}
	out := trainOutput{tree: enc, slots: t.SlotsEvaluated(), whiskers: tree.Len()}
	if tr == nil {
		return out, nil
	}
	sc := bufio.NewScanner(&journal)
	sc.Buffer(nil, 1<<20)
	genStart := start
	for sc.Scan() {
		var rec remy.GenerationRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return out, fmt.Errorf("read generation journal: %w", err)
		}
		genEnd := genStart.Add(time.Duration(rec.WallMillis * float64(time.Millisecond)))
		tr.record(fmt.Sprintf("remy.generation %d", rec.Gen), "remy", id, genStart, genEnd)
		tr.sample("remy.gen_ms_p50", rec.WallMillis)
		genStart = genEnd
		out.last = rec
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("read generation journal: %w", err)
	}
	tr.add("remy.slots_per_op", float64(out.slots))
	tr.add("remycc.whiskers", float64(tree.Len()))
	return out, nil
}

// check compares a Train call's output with the work pinned for its
// workload: slots requested, whiskers, and the SHA-256 of the tree.
func (out trainOutput) check(slots int64, whiskers int, treeSHA string) error {
	if out.slots != slots {
		return fmt.Errorf("Train requested %d slots, want %d", out.slots, slots)
	}
	if out.whiskers != whiskers {
		return fmt.Errorf("trained tree has %d whiskers, want %d", out.whiskers, whiskers)
	}
	if got := digest(out.tree); got != treeSHA {
		return fmt.Errorf("trained tree has SHA-256 %s, want %s", got, treeSHA)
	}
	return nil
}

// digest is the hex SHA-256 of b.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
