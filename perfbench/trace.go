package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer records spans in memory for the traced run: one root span per
// operation, and one child span around each call the benchmark makes
// into a layer's public function. Spans are kept until the run ends and
// then written out in one go, so recording costs a clock read and an
// append. A nil *Tracer records nothing, and every method of the nil
// *Span it hands out is a no-op, so the untraced run pays nothing.
type Tracer struct {
	epoch time.Time
	next  atomic.Int64

	mu    sync.Mutex
	spans []spanRecord
}

// spanRecord is one finished span. Start and End are offsets from the
// tracer's epoch; Parent is 0 for a root. Every span of one operation
// carries the operation's root ID.
type spanRecord struct {
	ID     int64              `json:"id"`
	Parent int64              `json:"parent"`
	Root   int64              `json:"root"`
	Name   string             `json:"name"`
	Start  time.Duration      `json:"startNs"`
	End    time.Duration      `json:"endNs"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// Span is an open span. It is owned by one goroutine until End.
type Span struct {
	t   *Tracer
	rec spanRecord
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Root opens the root span of one operation.
func (t *Tracer) Root(name string) *Span {
	if t == nil {
		return nil
	}
	id := t.next.Add(1)
	return t.open(id, 0, id, name)
}

func (t *Tracer) open(id, parent, root int64, name string) *Span {
	return &Span{t: t, rec: spanRecord{ID: id, Parent: parent, Root: root, Name: name, Start: time.Since(t.epoch)}}
}

// Child opens a span caused by s.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.t.open(s.t.next.Add(1), s.rec.ID, s.rec.Root, name)
}

// Count adds v to one of the span's counters — work done at this
// boundary, recorded where it happens.
func (s *Span) Count(key string, v float64) {
	if s == nil {
		return
	}
	if s.rec.Counts == nil {
		s.rec.Counts = make(map[string]float64)
	}
	s.rec.Counts[key] += v
}

// End closes the span and hands it to the tracer.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.rec.End = time.Since(s.t.epoch)
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, s.rec)
	s.t.mu.Unlock()
}

// tokenPrefix marks request IDs that carry a span reference.
const tokenPrefix = "span-"

// Token renders the span as a request ID. The client SDK forwards a
// context-carried request ID as X-Request-Id, which is how a span on
// the server side of an in-process HTTP call finds its parent.
func (s *Span) Token() string {
	if s == nil {
		return ""
	}
	return fmt.Sprintf("%s%d-%d", tokenPrefix, s.rec.Root, s.rec.ID)
}

// ChildOfToken opens a child of the span a Token names; nil when the
// token is not one (an untraced request).
func (t *Tracer) ChildOfToken(token, name string) *Span {
	if t == nil || !strings.HasPrefix(token, tokenPrefix) {
		return nil
	}
	var root, parent int64
	if _, err := fmt.Sscanf(token[len(tokenPrefix):], "%d-%d", &root, &parent); err != nil {
		return nil
	}
	return t.open(t.next.Add(1), parent, root, name)
}

// Spans returns a copy of the finished spans.
func (t *Tracer) Spans() []spanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]spanRecord(nil), t.spans...)
}

// WriteFile writes the finished spans as JSON lines.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children are merged into one
// covered set first, so overlapping children are not subtracted twice,
// and any part of a child outside its parent's interval is ignored.
func selfTimes(spans []spanRecord) map[int64]time.Duration {
	type interval struct{ lo, hi time.Duration }
	children := make(map[int64][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		var ivs []interval
		for _, c := range children[s.ID] {
			lo, hi := max(c.lo, s.Start), min(c.hi, s.End)
			if hi > lo {
				ivs = append(ivs, interval{lo, hi})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var covered time.Duration
		var cur interval
		for i, iv := range ivs {
			switch {
			case i == 0:
				cur = iv
			case iv.lo <= cur.hi:
				cur.hi = max(cur.hi, iv.hi)
			default:
				covered += cur.hi - cur.lo
				cur = iv
			}
		}
		if len(ivs) > 0 {
			covered += cur.hi - cur.lo
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// layerOf names the layer a span belongs to: the part of its name
// before the first dot ("core.match" → "core"). Root spans ("op:…")
// belong to no layer.
func layerOf(name string) string {
	layer, _, ok := strings.Cut(name, ".")
	if !ok {
		return ""
	}
	return layer
}

// opTrace is one operation's spans folded together: per span name the
// summed duration and counters, per layer the summed self time.
type opTrace struct {
	dur    map[string]time.Duration
	counts map[string]float64 // keyed "span/counter"
	self   map[string]time.Duration
}

// traceSummary folds a run's spans per operation (per root).
type traceSummary struct {
	ops   []*opTrace
	spans int
}

func summarizeTrace(spans []spanRecord) *traceSummary {
	self := selfTimes(spans)
	byRoot := make(map[int64]*opTrace)
	var roots []int64
	for _, s := range spans {
		op := byRoot[s.Root]
		if op == nil {
			op = &opTrace{dur: map[string]time.Duration{}, counts: map[string]float64{}, self: map[string]time.Duration{}}
			byRoot[s.Root] = op
			roots = append(roots, s.Root)
		}
		layer := layerOf(s.Name)
		if layer == "" {
			continue
		}
		op.dur[s.Name] += s.End - s.Start
		for k, v := range s.Counts {
			op.counts[s.Name+"/"+k] += v
		}
		op.self[layer] += self[s.ID]
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	sum := &traceSummary{spans: len(spans)}
	for _, r := range roots {
		sum.ops = append(sum.ops, byRoot[r])
	}
	return sum
}

// spanMS is the median, over the operations that called it, of the
// per-operation total time spent in the named span.
func (ts *traceSummary) spanMS(name string) float64 {
	var v []float64
	for _, op := range ts.ops {
		if d, ok := op.dur[name]; ok {
			v = append(v, ms(d))
		}
	}
	return median(v)
}

// count is the median, over the operations that recorded it, of the
// per-operation total of one counter of the named span.
func (ts *traceSummary) count(name, key string) float64 {
	var v []float64
	for _, op := range ts.ops {
		if c, ok := op.counts[name+"/"+key]; ok {
			v = append(v, c)
		}
	}
	return median(v)
}

// selfMS is the median, over the operations that entered the layer, of
// the layer's per-operation self time.
func (ts *traceSummary) selfMS(layer string) float64 {
	var v []float64
	for _, op := range ts.ops {
		if d, ok := op.self[layer]; ok {
			v = append(v, ms(d))
		}
	}
	return median(v)
}

// selfLayers are the layers whose self time the traced run reports
// under "<layer>.self_ms". The client layer's self time is reported as
// client.transport_ms: a client span's only child is the server-side
// handler span, so what remains is the round trip minus the handler.
var selfLayers = []string{"service", "protocol", "core", "wiki", "dict", "sim", "lsi", "ingest", "multi", "store"}

// layerMetrics derives the span-based per-layer metrics.
func (ts *traceSummary) layerMetrics() map[string]float64 {
	m := map[string]float64{
		"core.match_ms":           ts.spanMS("core.match"),
		"core.candidates":         ts.count("core.match", "candidates"),
		"core.correspondences":    ts.count("core.match", "correspondences"),
		"core.align_ms":           ts.spanMS("core.align"),
		"service.serve_ms":        ts.spanMS("service.serve"),
		"service.handler_ms":      ts.spanMS("service.handler"),
		"service.apply_delta_ms":  ts.count("client.delta", "server_ms"),
		"client.transport_ms":     ts.selfMS("client"),
		"protocol.encode_ms":      ts.spanMS("protocol.encode"),
		"protocol.decode_ms":      ts.spanMS("protocol.decode"),
		"protocol.response_bytes": ts.count("protocol.encode", "bytes"),
		"wiki.parse_ms":           ts.spanMS("wiki.parse"),
		"wiki.with_delta_ms":      ts.spanMS("wiki.with_delta"),
		"dict.busy_ms":            ts.spanMS("dict.build"),
		"dict.entries":            ts.count("dict.build", "entries"),
		"sim.typedata_ms":         ts.spanMS("sim.typedata"),
		"sim.attrs":               ts.count("sim.typedata", "attrs"),
		"sim.duals":               ts.count("sim.typedata", "duals"),
		"lsi.build_ms":            ts.spanMS("lsi.build"),
		"lsi.nnz":                 ts.count("lsi.build", "nnz"),
		"ingest.busy_ms":          ts.spanMS("ingest.dir"),
		"ingest.skipped_lines":    ts.count("ingest.dir", "skipped"),
		"multi.clusters_ms":       ts.spanMS("multi.clusters"),
		"multi.clusters":          ts.count("multi.clusters", "clusters"),
		"store.save_ms":           ts.spanMS("store.save"),
		"store.restore_ms":        ts.spanMS("store.restore"),
		"store.bytes":             ts.count("store.save", "bytes"),
		"trace.spans":             float64(ts.spans),
	}
	if busy := m["ingest.busy_ms"]; busy > 0 {
		m["ingest.mb_s"] = ts.count("ingest.dir", "bytes") / (1 << 20) / (busy / 1000)
	}
	for _, l := range selfLayers {
		m[l+".self_ms"] = ts.selfMS(l)
	}
	return m
}
