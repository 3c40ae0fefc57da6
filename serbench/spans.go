package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the traced run
// from outside the program. Spans of one operation share Op; Parent
// is the ID of the span that caused this one (0 for an operation's
// root span).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open is a started span; end records it. Both are nil-safe.
type open struct {
	t *tracer
	s span
}

// begin starts a span named after the layer call it wraps.
func (t *tracer) begin(name string, op, parent int64) *open {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return &open{t: t, s: span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.t0))}}
}

// id is the span's ID, 0 for a nil span.
func (o *open) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

// end closes the span and returns its duration.
func (o *open) end() time.Duration {
	if o == nil {
		return 0
	}
	o.s.End = int64(time.Since(o.t.t0))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
	return o.s.dur()
}

// newOp allocates an operation ID for a root span.
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	count int
	total time.Duration // sum of span durations
	self  time.Duration // total minus the time child spans cover
}

// mean is the mean span duration in ms (0 without spans).
func (l layerStat) mean() float64 {
	if l.count == 0 {
		return 0
	}
	return ms(l.total) / float64(l.count)
}

// aggregate sums spans by name. A span's self time is its duration
// minus the union of its children's intervals, clipped to the span.
func aggregate(spans []span) map[string]layerStat {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]layerStat{}
	for _, s := range spans {
		st := out[s.Name]
		st.count++
		st.total += s.dur()
		st.self += s.dur() - covered(s, children[s.ID])
		out[s.Name] = st
	}
	return out
}

// covered is the length of the union of the children's intervals
// inside the parent's interval.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curS, curE int64
	first := true
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		switch {
		case first:
			curS, curE, first = s, e, false
		case s > curE:
			total += curE - curS
			curS, curE = s, e
		case e > curE:
			curE = e
		}
	}
	if !first {
		total += curE - curS
	}
	return time.Duration(total)
}

// writeSpans writes the run's spans as JSON to dir/name, creating dir.
func writeSpans(dir, name string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// layerInputs are the traced run's measurements besides its spans.
type layerInputs struct {
	setupReps  int
	setupChars int64
	// analyses counts the decomposed analyses; gateVectors sums
	// gates × vectors and allocBytes the bytes allocated around their
	// strike calls.
	analyses    int
	gateVectors float64
	allocBytes  uint64
	// memoHits and memoMisses are the compiled-handle memo counters'
	// growth over the traced timed phase.
	memoHits, memoMisses int64
	// overheadPct is the tracer's cost (overhead.pct).
	overheadPct float64
}

// layerMetrics derives the per-layer metrics every workload reports
// in its traced run. Set-up spans are averaged per set-up rep, the
// decomposed analysis spans per call.
func layerMetrics(spans []span, in layerInputs) []metric {
	agg := aggregate(spans)
	var busy time.Duration
	for _, s := range spans {
		if s.Parent == 0 && strings.HasPrefix(s.Name, "op.") {
			busy += s.dur()
		}
	}
	perSetup := func(name string) float64 { return ms(agg[name].total) / float64(max(in.setupReps, 1)) }
	sens := agg["logicsim.sensitization"]
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	return []metric{
		{Name: "charlib.precharacterize_ms", Unit: "ms", Value: perSetup("charlib.precharacterize")},
		{Name: "charlib.characterizations", Unit: "count", Value: float64(in.setupChars)},
		{Name: "engine.compile_ms", Unit: "ms", Value: perSetup("engine.compile")},
		{Name: "engine.memo_hit_ratio", Unit: "ratio", Value: ratio(float64(in.memoHits), float64(in.memoHits+in.memoMisses))},
		{Name: "bench.parse_canon_ms", Unit: "ms", Value: agg["bench.parse_canon"].mean()},
		{Name: "logicsim.sensitization_ms", Unit: "ms", Value: sens.mean()},
		{Name: "logicsim.sensitization_share_pct", Unit: "%", Value: 100 * ratio(float64(sens.total), float64(busy))},
		{Name: "logicsim.gate_vectors_per_s", Unit: "1/s", Value: ratio(in.gateVectors, sens.total.Seconds())},
		{Name: "sertopt.sizing_ms", Unit: "ms", Value: agg["sertopt.sizing"].mean()},
		{Name: "aserta.strike_ms", Unit: "ms", Value: agg["aserta.strike"].mean()},
		{Name: "aserta.alloc_mb_per_analysis", Unit: "MB", Value: ratio(float64(in.allocBytes)/1e6, float64(in.analyses))},
		{Name: "strike.rank_ms", Unit: "ms", Value: agg["strike.rank"].mean()},
		{Name: "trace.overhead_pct", Unit: "%", Value: in.overheadPct},
	}
}

// overhead measures the tracer's cost: the same layer calls made once
// without spans and once with them, each timed from outside and
// started on a freshly collected heap, so neither pays for the other's
// garbage.
type overhead struct {
	// ratios holds each pair's traced over bare time.
	ratios []float64
	// turns counts the pairs run per key.
	turns map[int]int
}

// pair runs bare and traced and records the ratio of their wall times.
// Which of them runs first alternates between the pairs of one key
// (one kind of call) and starts differently on neighbouring keys, so
// that the second run's warmer caches favour neither side.
func (o *overhead) pair(key int, bare, traced func() error) error {
	if o.turns == nil {
		o.turns = map[int]int{}
	}
	first := key + o.turns[key]
	o.turns[key]++
	fns := [2]func() error{bare, traced}
	var d [2]time.Duration
	var errs [2]error
	for j := 0; j < 2; j++ {
		w := (first + j) % 2
		runtime.GC()
		t0 := time.Now()
		errs[w] = fns[w]()
		d[w] = time.Since(t0)
	}
	if d[0] > 0 {
		o.ratios = append(o.ratios, float64(d[1])/float64(d[0]))
	}
	return errors.Join(errs[0], errs[1])
}

// pct is the median pair's extra traced time, in percent of its bare
// time. The median keeps a pair slowed by something else, such as the
// first touch of a handle's memory, from counting as tracer cost.
func (o *overhead) pct() float64 {
	if len(o.ratios) == 0 {
		return 0
	}
	return 100 * (median(o.ratios) - 1)
}
