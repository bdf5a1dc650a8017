package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Spans of one op share Op; Parent is the ID of the
// enclosing span (0 for an op's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // since the traced run began
	End    int64  `json:"end_ns"`
}

// tracer collects a traced run's spans and counters in memory; they
// are written out once, when the run ends. Server goroutines record
// spans concurrently with the op's own goroutine, hence the mutex.
type tracer struct {
	t0 time.Time

	root int // the current op's root span; set and read on the op goroutine

	mu      sync.Mutex
	op      int
	spans   []span
	sums    map[string]float64   // per-run totals, divided by ops at the end
	samples map[string][]float64 // per-op or per-call values for medians
}

func newTracer() *tracer {
	return &tracer{
		t0:      time.Now(),
		sums:    map[string]float64{},
		samples: map[string][]float64{},
	}
}

// beginOp starts the next op and opens its root span.
func (t *tracer) beginOp() {
	t.mu.Lock()
	t.op++
	t.mu.Unlock()
	t.root = t.begin("op", "bench", 0)
}

// endOp closes the op's root span.
func (t *tracer) endOp() { t.end(t.root) }

// begin opens a span and returns its ID.
func (t *tracer) begin(name, layer string, parent int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: t.op, Name: name, Layer: layer, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// record adds a span whose interval is known after the fact (the
// trainer's generations, rebuilt from its journal).
func (t *tracer) record(name, layer string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Op: t.op, Name: name, Layer: layer,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return len(t.spans)
}

// reparent moves every span of this op named name under the
// innermost span of layer whose interval contains its start. Eval
// spans open on server goroutines before the generation spans that
// enclose them exist, so they are attached once the op is over.
func (t *tracer) reparent(name, layer string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var hosts []span
	for _, s := range t.spans {
		if s.Op == t.op && s.Layer == layer {
			hosts = append(hosts, s)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Op != t.op || s.Name != name {
			continue
		}
		for _, h := range hosts {
			if h.ID != s.ID && h.Start <= s.Start && s.Start < h.End {
				s.Parent = h.ID
			}
		}
	}
}

func (t *tracer) add(key string, v float64) {
	t.mu.Lock()
	t.sums[key] += v
	t.mu.Unlock()
}

func (t *tracer) sample(key string, v float64) {
	t.mu.Lock()
	t.samples[key] = append(t.samples[key], v)
	t.mu.Unlock()
}

// selfNanos sums each layer's self time: a span's duration minus the
// part of it that its children cover.
func (t *tracer) selfNanos() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := map[string]int64{}
	for _, s := range t.spans {
		self[s.Layer] += (s.End - s.Start) - covered(s.Start, s.End, kids[s.ID])
	}
	return self
}

// covered measures the union of intervals, clipped to [lo, hi).
func covered(lo, hi int64, iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write dumps the provenance line and then every span as JSON lines.
func (t *tracer) write(w io.Writer, prov provenance) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(prov); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return nil
}
