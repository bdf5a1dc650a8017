package main

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"learnability/internal/remy"
	"learnability/internal/remy/shard"
	"learnability/internal/remy/shardnet"
	"learnability/internal/units"
)

// The shardnet workload: one op is a Train through Trainer.Remotes
// against two in-process shardnet.Servers on loopback TCP, one
// connection each. Set-up fills the servers' shared result cache with
// one cold Train of the same config and seed, so every op is served
// from the cache: no simulation at all. This is where the shard codec,
// the wire, job hashing and the coordinator's own overhead show, and it
// is the read-heavy counterpart to the train workload's write-heavy
// slot cache. The recipe runs 1 s scenarios so the fill, and with it
// set-up, stays small; the training seed is pinned as in the train
// workload, for the same reason.

// The work one shardnet op must do, checked on every op. The tree is
// the one an in-process Train of the same config and seed returns (a
// self-test holds the two in step), so each op also checks that
// training through the workers is invisible.
const (
	shardnetSlots    = 768
	shardnetWhiskers = 31
	shardnetTreeSHA  = "c5d547a371f94587aa2eddf697e589f6d0dde26aff55278a71f3b16f025bdb09"
)

// shardServers is the number of worker servers, one lane each; with
// Workers = 1 per server the load stays within two CPUs.
const shardServers = 2

type shardnetBench struct {
	cfg   remy.Config
	cache *shardnet.Cache
	addrs []string
	lns   []net.Listener
	serve sync.WaitGroup

	tr   atomic.Pointer[tracer] // set while a traced op runs
	wire wireCount              // the servers' connections (traced runs)
}

func setupShardnet(_ uint64, traced bool) (instance, error) {
	cfg := trainConfig(units.Second)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := &shardnetBench{cfg: cfg, cache: shardnet.NewCache(0)}
	eval := remy.CachedShardEval(b.cache)
	for i := 0; i < shardServers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.close()
			return nil, fmt.Errorf("listen: %w", err)
		}
		b.addrs = append(b.addrs, ln.Addr().String())
		b.lns = append(b.lns, ln)
		if traced {
			ln = &countingListener{Listener: ln, w: &b.wire}
		}
		srv := &shardnet.Server{Eval: b.wrap(eval), Workers: 1}
		b.serve.Add(1)
		go func() {
			defer b.serve.Done()
			srv.Serve(ln) // returns nil once close shuts the listener
		}()
	}
	fill, err := runTrain(nil, b.trainer())
	if err == nil {
		err = fill.check(shardnetSlots, shardnetWhiskers, shardnetTreeSHA)
	}
	if err != nil {
		b.close()
		return nil, fmt.Errorf("cache fill: %w", err)
	}
	return b, nil
}

// close shuts the listeners and waits for the accept loops. Sessions
// end when the coordinator's pool hangs up at the end of each Train.
func (b *shardnetBench) close() {
	for _, ln := range b.lns {
		ln.Close()
	}
	b.serve.Wait()
}

// wrap is the Server.Eval the benchmark hands each server: the
// daemon's cached evaluator, plus a span and counts while an op is
// traced.
func (b *shardnetBench) wrap(eval shard.Eval) shard.Eval {
	return func(job *shard.Job) (*shard.Result, error) {
		tr := b.tr.Load()
		if tr == nil {
			return eval(job)
		}
		// Spans open unparented; the op attaches them to the
		// generation they ran in once it is over.
		id := tr.begin("shardnet.Eval", "shardnet", 0)
		res, err := eval(job)
		tr.sample("shardnet.eval_us_p50", float64(tr.end(id).Nanoseconds())/1e3)
		tr.add("shard.jobs_per_op", 1)
		if err == nil && !res.Cached {
			tr.add("remy.slots_simulated_per_op", float64(job.SlotHi-job.SlotLo))
		}
		return res, err
	}
}

// trainer is a fresh coordinator training through the workers.
func (b *shardnetBench) trainer() *remy.Trainer {
	return &remy.Trainer{Cfg: b.cfg, Seed: trainSeed, Workers: runtime.NumCPU(), Remotes: b.addrs}
}

// op trains through the workers once. Every slot must be served from
// the servers' cache: a miss there or in the coordinator's own cache
// means the op simulated, and fails it.
func (b *shardnetBench) op(tr *tracer, corrupt bool) (delivered, error) {
	t := b.trainer()
	var wire int64
	if tr != nil {
		wire = b.wire.settle()
		b.tr.Store(tr)
	}
	before := b.cache.Stats()
	out, err := runTrain(tr, t)
	b.tr.Store(nil)
	if err != nil {
		return delivered{}, err
	}
	after, local := b.cache.Stats(), t.LocalCacheStats()
	d := delivered{slots: int(out.slots), simSeconds: float64(out.slots) * b.cfg.Duration.Seconds()}
	if corrupt {
		out.tree[len(out.tree)-1] ^= 1
	}
	if err := out.check(shardnetSlots, shardnetWhiskers, shardnetTreeSHA); err != nil {
		return d, err
	}
	if misses := after.Misses - before.Misses; misses != 0 || local.Misses != 0 {
		return d, fmt.Errorf("op missed the servers' cache %d times and its own %d times; want every slot cached", misses, local.Misses)
	}
	if tr == nil {
		return d, nil
	}
	tr.reparent("shardnet.Eval", "remy")
	tr.add("raw.server_hits", float64(after.Hits-before.Hits))
	tr.add("raw.server_gets", float64(after.Hits+after.Misses-before.Hits-before.Misses))
	tr.add("shard.wire_bytes_per_op", float64(b.wire.settle()-wire))
	tr.add("remy.slots_simulated_per_op", float64(local.Misses))
	var jobs, p50, p90, retries float64
	for _, l := range out.last.Lanes {
		jobs += float64(l.Jobs)
		p50 += float64(l.Jobs) * l.P50Millis
		p90 += float64(l.Jobs) * l.P90Millis
		retries += float64(l.Requeues + l.Reconnects + l.Fallbacks)
	}
	if jobs > 0 {
		tr.sample("shard.job_ms_p50", p50/jobs)
		tr.sample("shard.job_ms_p90", p90/jobs)
	}
	tr.add("shard.retries_per_op", retries)
	return d, nil
}

// wireCount tallies the bytes crossing the servers' connections.
type wireCount struct {
	bytes atomic.Int64
	open  atomic.Int64 // connections accepted and not yet closed
}

// settle waits until every connection has closed — the coordinator
// hangs up when Train returns, the server a moment later — and returns
// the byte total, so an op's count holds exactly its own connections.
func (w *wireCount) settle() int64 {
	for deadline := time.Now().Add(5 * time.Second); w.open.Load() > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	return w.bytes.Load()
}

// countingListener hands the server connections that count every byte
// read and written.
type countingListener struct {
	net.Listener
	w *wireCount
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.w.open.Add(1)
	return &countingConn{Conn: c, w: l.w}, nil
}

type countingConn struct {
	net.Conn
	w      *wireCount
	closed sync.Once
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.w.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.w.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Close() error {
	c.closed.Do(func() { c.w.open.Add(-1) })
	return c.Conn.Close()
}
