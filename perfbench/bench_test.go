package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/multi"
	"repro/internal/protocol"
	"repro/internal/service"
	"repro/internal/synth"
	"repro/internal/wiki"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	s := seq(10)
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}, {0, 1},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
}

// TestTailLeavesTenBeyond pins the reporting rule: the tail is the
// highest candidate percentile with at least ten samples above it.
func TestTailLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		wantP  float64
		wantOK bool
	}{
		{19, 0, false},
		{20, 50, true},
		{99, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		s := seq(c.n)
		p, v, ok := tail(s)
		if ok != c.wantOK || p != c.wantP {
			t.Errorf("n=%d: tail = p%v ok=%v, want p%v ok=%v", c.n, p, ok, c.wantP, c.wantOK)
			continue
		}
		if !ok {
			continue
		}
		beyond := 0
		for _, x := range s {
			if x > v {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("n=%d: p%v = %v leaves %d samples beyond, want ≥ %d", c.n, p, v, beyond, minBeyond)
		}
	}
}

func TestSummarizeCountsFailures(t *testing.T) {
	var samples []sample
	for i := range 30 {
		samples = append(samples, sample{class: "a", lat: time.Duration(i+1) * time.Millisecond, ok: i != 0})
	}
	samples = append(samples, sample{class: "b", lat: time.Millisecond, ok: false})
	reps := summarize(samples, 0)
	if len(reps) != 3 || reps[2].Class != "all" {
		t.Fatalf("reports = %+v, want a, b, all", reps)
	}
	a := reps[0]
	if a.Sent != 30 || a.Succeeded != 29 || a.Failed != 1 || a.Samples != 29 {
		t.Errorf("class a = %+v, want 30 sent, 29 succeeded, 1 failed", a)
	}
	if a.P50MS != 16 || a.TailPct != 50 {
		t.Errorf("class a p50 %v tail p%v, want 16 and p50 (29 samples support no higher)", a.P50MS, a.TailPct)
	}
	if all := reps[2]; all.Sent != 31 || all.Failed != 2 {
		t.Errorf("all = %+v, want 31 sent, 2 failed", all)
	}
}

func span(id, parent, root int64, name string, start, end time.Duration) spanRecord {
	return spanRecord{ID: id, Parent: parent, Root: root, Name: name, Start: start, End: end}
}

// TestSelfTimes checks the self-time arithmetic: overlapping children
// count once, a child's part outside its parent is ignored, and a
// grandchild is subtracted from its parent only.
func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []spanRecord{
		span(1, 0, 1, "op", 0, 100*ms),
		span(2, 1, 1, "client.match", 10*ms, 30*ms),
		span(3, 1, 1, "service.serve", 20*ms, 50*ms), // overlaps span 2
		span(4, 1, 1, "protocol.encode", 90*ms, 120*ms),
		span(5, 3, 1, "core.match", 25*ms, 45*ms),
		span(6, 2, 1, "service.handler", 12*ms, 28*ms),
	}
	got := selfTimes(spans)
	want := map[int64]time.Duration{
		1: 100*ms - 40*ms - 10*ms, // [10,50] covered once, [90,100] clipped
		2: 20*ms - 16*ms,
		3: 30*ms - 20*ms,
		4: 30 * ms,
		5: 20 * ms,
		6: 16 * ms,
	}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self(%d) = %v, want %v", id, got[id], w)
		}
	}
}

func TestSummarizeTracePerOperation(t *testing.T) {
	ms := time.Millisecond
	spans := []spanRecord{
		span(1, 0, 1, "op:a", 0, 50*ms),
		span(2, 1, 1, "core.match", 0, 10*ms),
		span(3, 1, 1, "core.match", 10*ms, 30*ms),
		span(4, 0, 4, "op:b", 0, 50*ms),
		span(5, 4, 4, "core.match", 0, 40*ms),
		span(6, 4, 4, "client.match", 0, 10*ms),
		span(7, 6, 4, "service.handler", 2*ms, 8*ms),
		span(8, 0, 8, "op:c", 0, 50*ms),
		span(9, 8, 8, "core.match", 0, 12*ms),
	}
	spans[1].Counts = map[string]float64{"candidates": 3}
	spans[2].Counts = map[string]float64{"candidates": 4}
	ts := summarizeTrace(spans)
	if len(ts.ops) != 3 {
		t.Fatalf("%d operations, want 3", len(ts.ops))
	}
	// Per-operation totals 30, 40, 12 → median 30.
	if got := ts.spanMS("core.match"); got != 30 {
		t.Errorf("core.match median = %v ms, want 30", got)
	}
	if got := ts.count("core.match", "candidates"); got != 7 {
		t.Errorf("candidates = %v, want 7 (only op a counted)", got)
	}
	if got := ts.selfMS("client"); got != 4 {
		t.Errorf("client self = %v ms, want 4 (10 minus the 6 ms handler)", got)
	}
	if got := ts.spanMS("lsi.build"); got != 0 {
		t.Errorf("absent span reads %v, want 0", got)
	}
	m := ts.layerMetrics()
	if m["client.transport_ms"] != 4 || m["service.handler_ms"] != 6 || m["trace.spans"] != 9 {
		t.Errorf("layer metrics transport %v handler %v spans %v, want 4, 6, 9",
			m["client.transport_ms"], m["service.handler_ms"], m["trace.spans"])
	}
}

func TestTokenLinksServerSpan(t *testing.T) {
	tr := newTracer()
	root := tr.Root("op")
	cs := root.Child("client.match")
	hs := tr.ChildOfToken(cs.Token(), "service.handler")
	if hs == nil || hs.rec.Parent != cs.rec.ID || hs.rec.Root != root.rec.ID {
		t.Fatalf("server span %+v is not a child of %+v", hs, cs.rec)
	}
	if tr.ChildOfToken("req-1234", "service.handler") != nil {
		t.Error("a foreign request ID opened a span")
	}
	var none *Tracer
	if s := none.Root("op"); s != nil {
		t.Error("a nil tracer opened a span")
	}
}

func cloneMatch(r *protocol.MatchResponse) *protocol.MatchResponse {
	out := *r
	out.Types = append([][2]string(nil), r.Types...)
	out.Results = make([]protocol.TypeResult, len(r.Results))
	for i, tr := range r.Results {
		tr.Correspondences = append([]protocol.Correspondence(nil), tr.Correspondences...)
		out.Results[i] = tr
	}
	return &out
}

// TestCorruptedReferenceFailsMatchCheck proves the serving check can
// fail: a warm answer passes against the cold reference, and stops
// passing once any decided field of the reference changes.
func TestCorruptedReferenceFailsMatchCheck(t *testing.T) {
	ctx := context.Background()
	c, _, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cold := service.New(c)
	ref, err := cold.ServeMatch(ctx, protocol.MatchRequest{Pair: wiki.PtEn.String()})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := cold.ServeMatch(ctx, protocol.MatchRequest{Pair: wiki.PtEn.String()})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkMatch(warm, ref); err != nil {
		t.Fatalf("identical answers fail the check: %v", err)
	}
	var ti int
	for ti = range ref.Results {
		if len(ref.Results[ti].Correspondences) > 0 {
			break
		}
	}
	corruptions := map[string]func(*protocol.MatchResponse){
		"confidence": func(r *protocol.MatchResponse) { r.Results[ti].Correspondences[0].Confidence += 1e-12 },
		"attribute":  func(r *protocol.MatchResponse) { r.Results[ti].Correspondences[0].B += "x" },
		"dropped":    func(r *protocol.MatchResponse) { r.Results[ti].Correspondences = r.Results[ti].Correspondences[1:] },
		"candidates": func(r *protocol.MatchResponse) { r.Results[ti].Candidates++ },
		"types":      func(r *protocol.MatchResponse) { r.Types[0][1] = "other" },
	}
	for name, corrupt := range corruptions {
		bad := cloneMatch(ref)
		corrupt(bad)
		if err := checkMatch(warm, bad); err == nil {
			t.Errorf("%s: corrupted reference passed the check", name)
		}
	}
	// Elapsed times and cache counters are not part of the answer.
	noisy := cloneMatch(warm)
	noisy.ElapsedMS, noisy.Cache.Hits = 123, 456
	noisy.Results[0].ElapsedMS = 7
	if err := checkMatch(noisy, ref); err != nil {
		t.Errorf("timing and cache fields failed the check: %v", err)
	}
}

// TestCorruptedDigestFailsMatchAllCheck does the same for matchall.
func TestCorruptedDigestFailsMatchAllCheck(t *testing.T) {
	ctx := context.Background()
	c, _, err := synth.Editions(synth.DefaultEditions())
	if err != nil {
		t.Fatal(err)
	}
	s := service.New(c)
	resp, err := s.ServeMatchAll(ctx, protocol.MatchRequest{All: true})
	if err != nil {
		t.Fatal(err)
	}
	digest, err := matchAllDigest(resp)
	if err != nil {
		t.Fatal(err)
	}
	again, err := s.ServeMatchAll(ctx, protocol.MatchRequest{All: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkMatchAll(again, digest); err != nil {
		t.Fatalf("a repeated answer fails the check: %v", err)
	}
	if err := checkMatchAll(again, digest[:len(digest)-1]+"x"); err == nil {
		t.Error("a corrupted digest passed the check")
	}
	moved := *again
	moved.Clusters = append([]multi.Cluster(nil), again.Clusters...)
	moved.Clusters[0].Agreement += 0.5
	if err := checkMatchAll(&moved, digest); err == nil {
		t.Error("a changed cluster passed the check")
	}
	failed := *again
	failed.Pairs = append([]protocol.MatchAllPair(nil), again.Pairs...)
	failed.Pairs[0].Error = "boom"
	if err := checkMatchAll(&failed, digest); err == nil {
		t.Error("a failed pair passed the check")
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the metric tables of the
// code and BENCHMARK.json in step: same names, same units, same order.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var doc struct {
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], code %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd)
	compare("per_layer", doc.PerLayer, perLayer)
}
