package main

import (
	"encoding/json"
	"fmt"
	"reflect"
	"time"

	"learnability/internal/cc"
	"learnability/internal/cc/cubic"
	"learnability/internal/cc/remycc"
	"learnability/internal/netsim"
	"learnability/internal/rng"
	"learnability/internal/scenario"
	"learnability/internal/topo"
	"learnability/internal/units"
)

// The scenario workload: one op is one sequential pass over a fixed
// matrix of 30-s paper testing scenarios (150 ms, 5 BDP buffers, on/off
// senders with 1 s means). The Cubic dumbbells sit on the Figure 2
// link-speed axis, where per-packet cost grows with rate; the Tao row
// runs a fixed multi-whisker tree over CE-marking CoDel on a link whose
// rate flips; the parking lot and the fat-tree incast exercise
// multi-hop and multipath forwarding. Everything runs on one goroutine
// with no trainer, so trainer, cache and wire changes should not move
// this workload.
//
// The rows' random draws are fixed. A row's cost is a property of its
// draw — over seeds 1-8 the 320 Mbps row took 89-381 ms and 0.46-1.06 M
// events, since a long on-period grows a slow-starting window
// exponentially — so a seed-drawn matrix could not hold a run's work
// fixed. --seed instead orders the rows of the pass: every op of a run
// takes the same order, and the pooled worlds reach each row from a
// different history in different runs, which the per-op check against
// fresh builds covers.

// matrixSeed fixes the rows' draws.
const matrixSeed = 1

// rowSHA pins each row's results: the SHA-256 of their JSON encoding.
// Every op checks every row against it, so a pass that does other work
// than the matrix's fails rather than reading as a speed-up.
var rowSHA = map[string]string{
	"cubic-dumbbell-3.2M":           "cd0f6fe342251133a93e91e5bfe46764d15cbc4acae5fe2962652e950ca8c3f9",
	"cubic-dumbbell-32M":            "50b7e6654b33dd9d0a729ccda1736652ef797a50e9f86641552d7d0a9b72b93c",
	"cubic-dumbbell-320M":           "db9819469a5a0cdd16d1588cc16ca2d652a170946ae3d7a2f4d5e62677f2701c",
	"tao-codel-ecn-onoff":           "0d2c11170cbd8d3bf7f5887a7db7c56fc496563a2aa5f8ac5475266223cb9601",
	"cubic-parkinglot-3hop":         "fef8c24dc5bccb8830d1b838d8f887abc64df51cb9061095591061bc8d622fc4",
	"cubic-fattree-k4-incast-spray": "b1a0268519eb43855cb3b3aea890b1abcc1869232bf49c05824b7f06681c7b5a",
}

const (
	testDuration = 30 * units.Second
	testRTT      = 150 * units.Millisecond
	testBDP      = 5
)

// row is one matrix entry: a spec template whose senders all run
// either Cubic or, with tao set, the Tao tree. build adds fresh
// senders, since a controller instance serves exactly one run.
type row struct {
	name    string
	tmpl    scenario.Spec
	senders int
	tao     *remycc.Tree
}

// build returns the row's spec; usage, when set, records the Tao
// senders' whisker lookups.
func (r *row) build(usage *remycc.UsageStats) scenario.Spec {
	s := r.tmpl
	s.Senders = make([]scenario.Sender, r.senders)
	for i := range s.Senders {
		var alg cc.Algorithm = cubic.New()
		if r.tao != nil {
			rc := remycc.New(r.tao)
			if usage != nil {
				rc.RecordUsage(usage)
			}
			alg = rc
		}
		s.Senders[i] = scenario.Sender{Alg: alg, Delta: 1}
	}
	return s
}

// taoTree is the Tao row's protocol: the default tree split once along
// every signal (32 whiskers), each child given an action that backs off
// harder the more queueing and marking its region implies. It is a
// fixed input, not a trained protocol, so the row costs the same on
// every commit.
func taoTree() (*remycc.Tree, error) {
	at := remycc.Vector{0.01, 0.02, 0.01, 2, 0.5}
	dims := []remycc.Signal{remycc.RecEWMA, remycc.SlowRecEWMA, remycc.SendEWMA, remycc.RTTRatio, remycc.ECNFraction}
	tree, ok := remycc.NewTree().Split(0, at, dims)
	if !ok {
		return nil, fmt.Errorf("tao tree: split degenerate")
	}
	for i, w := range tree.Whiskers {
		a := remycc.Action{WindowMult: 1, WindowIncr: 1, Intersend: 0.0005}
		if w.Domain.Lo[remycc.RTTRatio] >= at[remycc.RTTRatio] {
			a = remycc.Action{WindowMult: 0.9, WindowIncr: 0, Intersend: 0.001}
		}
		if w.Domain.Lo[remycc.ECNFraction] >= at[remycc.ECNFraction] {
			a.WindowMult *= 0.8
		}
		if w.Domain.Lo[remycc.RecEWMA] >= at[remycc.RecEWMA] {
			a.WindowIncr += 1
		}
		tree = tree.WithAction(i, a)
	}
	return tree, tree.Validate()
}

// matrix builds the scenario rows in the pass order seed picks.
func matrix(seed uint64, tao *remycc.Tree) []row {
	root := rng.New(matrixSeed).Split("perfbench/scenario")
	base := func(name string, t scenario.Topology, speed units.Rate) scenario.Spec {
		return scenario.Spec{
			Topology:  t,
			LinkSpeed: speed,
			MinRTT:    testRTT,
			Buffering: scenario.FiniteDropTail,
			BufferBDP: testBDP,
			MeanOn:    units.Second,
			MeanOff:   units.Second,
			Duration:  testDuration,
			Seed:      root.Split(name),
		}
	}
	var rows []row
	for _, mbps := range []float64{3.2, 32, 320} {
		name := fmt.Sprintf("cubic-dumbbell-%gM", mbps)
		rows = append(rows, row{name, base(name, scenario.Dumbbell, units.Rate(mbps)*units.Mbps), 2, nil})
	}
	taoSpec := base("tao-codel-ecn-onoff", scenario.Dumbbell, 32*units.Mbps)
	taoSpec.Buffering = scenario.CoDelAQM
	taoSpec.ECN = true
	taoSpec.VarRate = scenario.VarRate{Kind: scenario.VarRateOnOff, LowFactor: 0.25, MeanHigh: units.Second, MeanLow: units.Second}
	rows = append(rows, row{"tao-codel-ecn-onoff", taoSpec, 2, tao})
	lot := scenario.ParkingLotN(3, true)
	rows = append(rows, row{"cubic-parkinglot-3hop", base("cubic-parkinglot-3hop", lot, 32*units.Mbps), lot.FlowCount(0), nil})
	incast := scenario.FatTreeIncast(4, 4, topo.Spray)
	rows = append(rows, row{"cubic-fattree-k4-incast-spray", base("cubic-fattree-k4-incast-spray", incast, 32*units.Mbps), incast.FlowCount(0), nil})
	order := make([]row, len(rows))
	for i, j := range rng.New(seed).Split("perfbench/scenario/order").Perm(len(rows)) {
		order[i] = rows[j]
	}
	return order
}

type scenarioBench struct {
	rows []row
	want [][]scenario.Result // reference: a fresh Build+Finish per row
}

func setupScenario(seed uint64, _ bool) (instance, error) {
	tao, err := taoTree()
	if err != nil {
		return nil, err
	}
	b := &scenarioBench{rows: matrix(seed, tao)}
	for i := range b.rows {
		spec := b.rows[i].build(nil)
		nw, _, err := scenario.Build(spec)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.rows[i].name, err)
		}
		b.want = append(b.want, scenario.Finish(spec, nw))
	}
	return b, nil
}

func (b *scenarioBench) close() {}

// op runs the matrix once. Untraced, each row goes through the pooled
// scenario.Run; traced, through Build and Finish with the probe, packet
// tracer and whisker-usage hooks attached. Either way every row's
// results must equal the fresh reference.
func (b *scenarioBench) op(tr *tracer, corrupt bool) (delivered, error) {
	var d delivered
	var build, finish time.Duration
	for i := range b.rows {
		r := &b.rows[i]
		var got []scenario.Result
		var err error
		if tr == nil {
			got, err = scenario.Run(r.build(nil))
		} else {
			var bt, ft time.Duration
			got, bt, ft, err = traced(tr, r)
			build += bt
			finish += ft
		}
		if err != nil {
			return d, fmt.Errorf("%s: %w", r.name, err)
		}
		if corrupt && i == 0 {
			got[0].Retransmits++
		}
		if !reflect.DeepEqual(got, b.want[i]) {
			return d, fmt.Errorf("%s: results differ from a fresh Build+Finish", r.name)
		}
		if err := checkRow(r.name, got); err != nil {
			return d, err
		}
		d.slots++
		d.simSeconds += r.tmpl.Duration.Seconds()
	}
	if tr != nil {
		tr.sample("scenario.build_us_p50", float64(build.Nanoseconds())/1e3)
		tr.sample("scenario.run_ms_p50", ms(finish))
	}
	return d, nil
}

// checkRow compares a row's results with the pinned digest.
func checkRow(name string, res []scenario.Result) error {
	enc, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("%s: encode results: %w", name, err)
	}
	if got := digest(enc); got != rowSHA[name] {
		return fmt.Errorf("%s: results have SHA-256 %s, want %s", name, got, rowSHA[name])
	}
	return nil
}

// traced runs one row through Build and Finish and records the
// simulator, transport, queue and controller counts from outside:
// events from the scheduler, heap depth from the probe, drops and
// marks from a counting packet tracer, lookups from whisker usage, and
// per-link packet conservation at the end. It returns the row's
// results and the time spent in Build and in Finish.
func traced(tr *tracer, r *row) (res []scenario.Result, build, finish time.Duration, err error) {
	var usage *remycc.UsageStats
	if r.tao != nil {
		usage = remycc.NewUsageStats(r.tao.Len())
	}
	spec := r.build(usage)
	var nw *netsim.Network
	var depthSum, ticks float64
	spec.Probe = func(units.Time) {
		depthSum += float64(nw.Sched.Len())
		ticks++
	}
	var drops []int64
	var marks int64
	spec.Trace = func(ev netsim.PacketEvent) {
		switch ev.Kind {
		case netsim.TraceDropTail, netsim.TraceDropAQM:
			drops[ev.Link]++
		case netsim.TraceMarkCE:
			marks++
		}
	}

	id := tr.begin("scenario.Build "+r.name, "scenario", tr.root)
	nw, _, err = scenario.Build(spec)
	build = tr.end(id)
	if err != nil {
		return nil, build, 0, err
	}
	drops = make([]int64, len(nw.Links))
	id = tr.begin("scenario.Finish "+r.name, "scenario", tr.root)
	res = scenario.Finish(spec, nw)
	finish = tr.end(id)

	// Probe ticks are the benchmark's own events; without them the
	// count is what an untraced run of the row processes.
	events := float64(nw.Sched.Processed()) - ticks
	tr.add("sim.events_per_op", events)
	tr.add("raw.sim_seconds", spec.Duration.Seconds())
	tr.add("raw.heap_depth_sum", depthSum)
	tr.add("raw.heap_depth_samples", ticks)
	var sent, retx, rto int64
	for _, f := range nw.Flows {
		sent += f.Stats.SentPackets
		retx += f.Stats.Retransmits
		rto += f.Stats.Timeouts
	}
	tr.add("netsim.packets_per_op", float64(sent))
	tr.add("netsim.retransmits_per_op", float64(retx))
	tr.add("netsim.timeouts_per_op", float64(rto))
	var dropped int64
	for i, l := range nw.Links {
		in, out := l.Counts()
		if in != out+drops[i]+int64(l.InFlight()) {
			return nil, build, finish, fmt.Errorf("link %d does not conserve packets: in %d, out %d, drops %d, in flight %d",
				i, in, out, drops[i], l.InFlight())
		}
		dropped += drops[i]
	}
	tr.add("queue.drops_per_op", float64(dropped))
	tr.add("queue.ce_marks_per_op", float64(marks))
	if usage != nil {
		var lookups int64
		for _, c := range usage.Count {
			lookups += c
		}
		tr.add("remycc.lookups_per_op", float64(lookups))
		tr.add("remycc.whiskers", float64(r.tao.Len()))
	}
	return res, build, finish, nil
}
