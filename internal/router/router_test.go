package router

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/protocol"
	"repro/internal/service"
	"repro/internal/synth"
	"repro/internal/wiki"
)

var (
	corpusOnce sync.Once
	testCorpus *wiki.Corpus
)

func smallCorpus(t testing.TB) *wiki.Corpus {
	t.Helper()
	corpusOnce.Do(func() {
		c, _, err := synth.Generate(synth.SmallConfig())
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		testCorpus = c
	})
	return testCorpus
}

// fleet is one running test topology: count shard replicas (each gated
// and serving the full corpus), a router over them, and a plain
// single-binary server on the same corpus for equivalence checks.
type fleet struct {
	rt      *Router
	rtSrv   *httptest.Server
	shards  []*httptest.Server
	single  *httptest.Server
	lastIDs []*atomic.Value // per shard: last inbound X-Request-Id
}

func startFleet(t *testing.T, count int, rtOpts ...Option) *fleet {
	t.Helper()
	c := smallCorpus(t)
	f := &fleet{}
	addrs := make([]string, count)
	for i := 0; i < count; i++ {
		s := service.New(c)
		h := service.NewHandler(s, service.WithShardGate(shardLabel(i, count), Owned(i, count)))
		last := &atomic.Value{}
		f.lastIDs = append(f.lastIDs, last)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			last.Store(r.Header.Get("X-Request-Id"))
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		f.shards = append(f.shards, srv)
		addrs[i] = srv.URL
	}
	opts := append([]Option{
		WithHealthInterval(-1),
		WithProbeTimeout(2 * time.Second),
		WithClientOptions(client.WithRetries(0, time.Millisecond)),
	}, rtOpts...)
	rt, err := New(addrs, opts...)
	if err != nil {
		t.Fatalf("router.New: %v", err)
	}
	t.Cleanup(rt.Close)
	f.rt = rt
	f.rtSrv = httptest.NewServer(rt.Handler())
	t.Cleanup(f.rtSrv.Close)

	f.single = httptest.NewServer(service.NewHandler(service.New(c)))
	t.Cleanup(f.single.Close)
	return f
}

func shardLabel(i, count int) string {
	return "shard " + string(rune('0'+i)) + "/" + string(rune('0'+count))
}

// post POSTs a JSON body and returns status and raw response bytes.
func post(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// normalizeMatchAll zeroes the fields that legitimately differ between
// a routed batch and a local one — wall-clock timings and cache
// provenance — and returns the re-marshalled bytes. Everything else
// (mode, hub, planned pairs, per-pair outcomes, clusters, conflicts)
// must match byte for byte.
func normalizeMatchAll(t *testing.T, raw []byte) []byte {
	t.Helper()
	var resp protocol.MatchAllResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("decode matchall: %v (%s)", err, raw)
	}
	resp.ElapsedMS = 0
	resp.Cache = protocol.CacheStats{}
	for i := range resp.Pairs {
		resp.Pairs[i].ElapsedMS = 0
	}
	out, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMatchAllByteIdentical is the tentpole acceptance gate: a 2-shard
// scatter-gathered /v1/matchall must serialize byte-identically to a
// single binary's — clusters, induced correspondences, planned pairs —
// in both pivot and direct modes, with threshold overrides too.
func TestMatchAllByteIdentical(t *testing.T) {
	f := startFleet(t, 2)
	for _, body := range []string{
		`{"all":true}`,
		`{"all":true,"mode":"direct"}`,
		`{"all":true,"tsim":0.8}`,
	} {
		gotStatus, got := post(t, f.rtSrv.URL+"/v1/matchall", body)
		wantStatus, want := post(t, f.single.URL+"/v1/matchall", body)
		if gotStatus != http.StatusOK || wantStatus != http.StatusOK {
			t.Fatalf("%s: router %d, single %d", body, gotStatus, wantStatus)
		}
		gotN, wantN := normalizeMatchAll(t, got), normalizeMatchAll(t, want)
		if !bytes.Equal(gotN, wantN) {
			t.Errorf("%s: routed batch differs from single binary\nrouter: %s\nsingle: %s", body, gotN, wantN)
		}
	}

	// Induced correspondences reconstruct identically from both bodies.
	_, got := post(t, f.rtSrv.URL+"/v1/matchall", `{"all":true}`)
	_, want := post(t, f.single.URL+"/v1/matchall", `{"all":true}`)
	var gotAll, wantAll protocol.MatchAllResponse
	if err := json.Unmarshal(got, &gotAll); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &wantAll); err != nil {
		t.Fatal(err)
	}
	pair := wiki.OrientPair("pt", "vi", wiki.English) // transitive: never matched directly in pivot mode
	gi := gotAll.Induced(pair)
	wi := wantAll.Induced(pair)
	if len(gi) == 0 {
		t.Error("routed batch induced no pt-vi correspondences")
	}
	if !reflect.DeepEqual(gi, wi) {
		t.Errorf("induced correspondences differ:\nrouter: %v\nsingle: %v", gi, wi)
	}
	if len(gotAll.Planned) == 0 || len(gotAll.Clusters) == 0 {
		t.Fatalf("routed batch is hollow: planned=%d clusters=%d", len(gotAll.Planned), len(gotAll.Clusters))
	}
}

// TestUnaryRoutesToOwner: a pair request through the router answers
// identically (modulo timing) to the single binary, even though each
// shard would reject the pairs it does not own.
func TestUnaryRoutesToOwner(t *testing.T) {
	f := startFleet(t, 2)
	for _, body := range []string{`{"pair":"pt-en"}`, `{"pair":"vi-en"}`, `{"pair":"pt-en","type":"filme"}`} {
		gotStatus, got := post(t, f.rtSrv.URL+"/v1/match", body)
		wantStatus, want := post(t, f.single.URL+"/v1/match", body)
		if gotStatus != http.StatusOK || wantStatus != http.StatusOK {
			t.Fatalf("%s: router %d, single %d", body, gotStatus, wantStatus)
		}
		var gotR, wantR protocol.MatchResponse
		if err := json.Unmarshal(got, &gotR); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(want, &wantR); err != nil {
			t.Fatal(err)
		}
		gotR.ElapsedMS, wantR.ElapsedMS = 0, 0
		gotR.Cache, wantR.Cache = protocol.CacheStats{}, protocol.CacheStats{}
		for i := range gotR.Results {
			gotR.Results[i].ElapsedMS = 0
		}
		for i := range wantR.Results {
			wantR.Results[i].ElapsedMS = 0
		}
		gn, _ := json.Marshal(gotR)
		wn, _ := json.Marshal(wantR)
		if !bytes.Equal(gn, wn) {
			t.Errorf("%s: routed match differs\nrouter: %s\nsingle: %s", body, gn, wn)
		}
	}

	// Canonical validation errors come from the router itself.
	status, raw := post(t, f.rtSrv.URL+"/v1/match", `{"pair":"nope"}`)
	if status != http.StatusBadRequest {
		t.Fatalf("invalid pair via router: status %d, body %s", status, raw)
	}
	var env protocol.ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil || env.Error == nil || env.Error.Code != protocol.CodeInvalidArgument {
		t.Fatalf("invalid pair envelope: %s", raw)
	}
	// The retired candidates knob is an unknown field to the router's
	// strict decoder too.
	status, raw = post(t, f.rtSrv.URL+"/v1/match", `{"pair":"pt-en","candidates":4}`)
	env = protocol.ErrorEnvelope{}
	if status != http.StatusBadRequest || json.Unmarshal(raw, &env) != nil || env.Error == nil || env.Error.Code != protocol.CodeInvalidArgument {
		t.Fatalf("retired candidates field via router: status %d, body %s", status, raw)
	}
}

// TestRequestIDPropagation: a client-supplied X-Request-Id survives the
// router hop and reaches the owning shard.
func TestRequestIDPropagation(t *testing.T) {
	f := startFleet(t, 2)
	req, err := http.NewRequest(http.MethodPost, f.rtSrv.URL+"/v1/match", strings.NewReader(`{"pair":"pt-en"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "fleet-trace-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "fleet-trace-1" {
		t.Errorf("router did not echo the request ID: %q", got)
	}
	owner := ShardFor(wiki.PtEn, 2)
	if got, _ := f.lastIDs[owner].Load().(string); got != "fleet-trace-1" {
		t.Errorf("shard %d saw request ID %q, want fleet-trace-1", owner, got)
	}

	// A router-minted ID propagates too: it is always set and valid.
	status, _ := post(t, f.rtSrv.URL+"/v1/match", `{"pair":"vi-en"}`)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	owner = ShardFor(wiki.VnEn, 2)
	if got, _ := f.lastIDs[owner].Load().(string); got == "" {
		t.Error("shard saw no request ID on a router-minted request")
	}
}

// TestStreamThroughRouter: pair streams relay the owning shard's lines
// (types then a final summary); all-pairs streams scatter-gather with
// progress lines and a final response equal (normalized) to matchall.
func TestStreamThroughRouter(t *testing.T) {
	f := startFleet(t, 2)

	lines := streamLines(t, f.rtSrv.URL+"/v1/stream", `{"pair":"pt-en"}`)
	if len(lines) < 2 {
		t.Fatalf("pair stream produced %d lines", len(lines))
	}
	var sawType bool
	var final *protocol.MatchResponse
	for _, line := range lines {
		if line.Type != nil {
			sawType = true
		}
		if line.FinalMatch != nil {
			final = line.FinalMatch
		}
	}
	if !sawType || final == nil {
		t.Fatalf("pair stream missing type lines or final (types=%v final=%v)", sawType, final != nil)
	}
	if final.Pair != "pt-en" || len(final.Results) == 0 {
		t.Fatalf("hollow final: %+v", final)
	}

	lines = streamLines(t, f.rtSrv.URL+"/v1/stream", `{"all":true}`)
	var finalAll *protocol.MatchAllResponse
	pairLines := 0
	for _, line := range lines {
		if line.Pair != nil {
			pairLines++
		}
		if line.FinalAll != nil {
			finalAll = line.FinalAll
		}
	}
	if finalAll == nil || pairLines != len(finalAll.Planned) {
		t.Fatalf("all stream: %d pair lines, final %v", pairLines, finalAll != nil)
	}
	_, want := post(t, f.single.URL+"/v1/matchall", `{"all":true}`)
	finalRaw, err := json.Marshal(finalAll)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(normalizeMatchAll(t, finalRaw), normalizeMatchAll(t, want)) {
		t.Error("streamed final differs from single-binary matchall")
	}
}

func streamLines(t *testing.T, url, body string) []protocol.StreamLine {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream status %d: %s", resp.StatusCode, raw)
	}
	var lines []protocol.StreamLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var line protocol.StreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("decode line %q: %v", sc.Text(), err)
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestDeltaFanout: a corpus delta through the router reaches every
// shard, reports per-shard outcomes, and stays consistent (every shard
// lands on the same fingerprint).
func TestDeltaFanout(t *testing.T) {
	f := startFleet(t, 2)
	body := `{"upserts":[{"lang":"pt","title":"Cidade Frota","wikitext":"{{Infobox filme | nome = Cidade Frota}}"}]}`
	status, raw := post(t, f.rtSrv.URL+"/v1/corpus/delta", body)
	if status != http.StatusOK {
		t.Fatalf("delta status %d: %s", status, raw)
	}
	var resp protocol.FleetDeltaResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != protocol.FleetOK || !resp.Consistent || len(resp.Shards) != 2 {
		t.Fatalf("delta fan-out: %+v", resp)
	}
	for _, sd := range resp.Shards {
		if sd.Error != nil || sd.Response == nil || sd.Response.Added != 1 {
			t.Errorf("shard %d delta outcome: %+v", sd.Shard, sd)
		}
	}

	// A malformed delta is rejected router-side with the canonical
	// envelope and touches no shard.
	status, raw = post(t, f.rtSrv.URL+"/v1/corpus/delta", `{"upserts":[{"lang":"??","title":"x","wikitext":""}]}`)
	if status != http.StatusBadRequest {
		t.Fatalf("bad delta status %d: %s", status, raw)
	}
}

// TestInvalidateFanout: invalidation sums per-shard drop counts.
func TestInvalidateFanout(t *testing.T) {
	f := startFleet(t, 2)
	// Warm both shards.
	post(t, f.rtSrv.URL+"/v1/match", `{"pair":"pt-en"}`)
	post(t, f.rtSrv.URL+"/v1/match", `{"pair":"vi-en"}`)
	status, raw := post(t, f.rtSrv.URL+"/v1/invalidate", `{}`)
	if status != http.StatusOK {
		t.Fatalf("invalidate status %d: %s", status, raw)
	}
	var resp protocol.InvalidateResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Dropped < 2 || resp.Dropped != resp.Pairs+resp.Types {
		t.Fatalf("fleet invalidate summed wrong: %+v", resp)
	}
}

// TestCorpusAggregation: /v1/corpus serves the shared corpus stats with
// fleet-summed cache counters.
func TestCorpusAggregation(t *testing.T) {
	f := startFleet(t, 2)
	post(t, f.rtSrv.URL+"/v1/match", `{"pair":"pt-en"}`)
	post(t, f.rtSrv.URL+"/v1/match", `{"pair":"vi-en"}`)
	resp, err := http.Get(f.rtSrv.URL + "/v1/corpus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats protocol.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Corpus.Articles["pt"] == 0 || stats.Corpus.Articles["en"] == 0 {
		t.Fatalf("fleet corpus stats hollow: %+v", stats.Corpus.Articles)
	}
	// Both pairs were matched on different shards; the summed cache must
	// show both pair entries.
	if stats.Cache.PairEntries < 2 {
		t.Errorf("fleet cache PairEntries = %d, want >= 2", stats.Cache.PairEntries)
	}
}

// TestHealthAndMetrics: the aggregated health and metrics endpoints
// report every shard.
func TestHealthAndMetrics(t *testing.T) {
	f := startFleet(t, 2)
	var health protocol.FleetHealth
	getJSON(t, f.rtSrv.URL+"/v1/healthz", &health)
	if health.Status != protocol.FleetOK || health.ShardsHealthy != 2 || health.ShardsTotal != 2 {
		t.Fatalf("fleet health: %+v", health)
	}
	if h := f.rt.Health(); h == nil || h.Status != protocol.FleetOK {
		t.Error("router did not record the probed health")
	}

	post(t, f.rtSrv.URL+"/v1/match", `{"pair":"pt-en"}`)
	var metrics protocol.FleetMetrics
	getJSON(t, f.rtSrv.URL+"/v1/metrics", &metrics)
	if metrics.Router.RequestsTotal == 0 {
		t.Error("router metrics did not count requests")
	}
	if len(metrics.Shards) != 2 {
		t.Fatalf("metrics shards = %d", len(metrics.Shards))
	}
	for _, sm := range metrics.Shards {
		if sm.Error != "" || sm.Metrics == nil {
			t.Errorf("shard %d metrics: %+v", sm.Shard, sm)
		}
	}
}

// TestHealthPoller: with a positive interval the background poller
// records fleet health without any /v1/healthz request.
func TestHealthPoller(t *testing.T) {
	f := startFleet(t, 2, WithHealthInterval(20*time.Millisecond))
	deadline := time.Now().Add(5 * time.Second)
	for f.rt.Health() == nil {
		if time.Now().After(deadline) {
			t.Fatal("poller never recorded fleet health")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if h := f.rt.Health(); h.Status != protocol.FleetOK {
		t.Errorf("polled status = %s", h.Status)
	}
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, raw)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatal(err)
	}
}

// TestPartialFailure is the degraded-fleet gate: with one shard down,
// its pairs answer unavailable, scatter-gather keeps going with
// per-pair errors, health reports degraded, and deltas report the
// failed shard without aborting the healthy ones.
func TestPartialFailure(t *testing.T) {
	f := startFleet(t, 2)
	const count = 2
	deadShard := ShardFor(wiki.PtEn, count)
	f.shards[deadShard].Close()

	// Unary request for a dead-shard pair: retryable unavailable.
	status, raw := post(t, f.rtSrv.URL+"/v1/match", `{"pair":"pt-en"}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("dead-shard match status %d: %s", status, raw)
	}
	var env protocol.ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil || env.Error == nil {
		t.Fatalf("dead-shard envelope: %s", raw)
	}
	if env.Error.Code != protocol.CodeUnavailable || !env.Error.Retryable {
		t.Fatalf("dead-shard envelope: %+v", env.Error)
	}

	// Pairs owned by the surviving shard still serve.
	alive := wiki.VnEn
	if ShardFor(alive, count) == deadShard {
		t.Fatalf("test corpus pairs all landed on one shard; pick different pairs")
	}
	if status, _ := post(t, f.rtSrv.URL+"/v1/match", `{"pair":"vi-en"}`); status != http.StatusOK {
		t.Fatalf("surviving shard match status %d", status)
	}

	// Scatter-gather: per-pair errors for the dead shard, results for
	// the rest, no abort.
	status, raw = post(t, f.rtSrv.URL+"/v1/matchall", `{"all":true}`)
	if status != http.StatusOK {
		t.Fatalf("degraded matchall status %d: %s", status, raw)
	}
	var all protocol.MatchAllResponse
	if err := json.Unmarshal(raw, &all); err != nil {
		t.Fatal(err)
	}
	failed, succeeded := 0, 0
	for _, p := range all.Pairs {
		if p.Error != "" {
			failed++
			if !strings.Contains(p.Error, "unavailable") {
				t.Errorf("pair %s failed with %q, want an unavailable-class error", p.Pair, p.Error)
			}
		} else {
			succeeded++
		}
	}
	if failed == 0 || succeeded == 0 {
		t.Fatalf("degraded batch: %d failed, %d succeeded — want both", failed, succeeded)
	}

	// Health: degraded, with the dead shard identified.
	var health protocol.FleetHealth
	getJSON(t, f.rtSrv.URL+"/v1/healthz", &health)
	if health.Status != protocol.FleetDegraded || health.ShardsHealthy != 1 {
		t.Fatalf("degraded health: %+v", health)
	}
	for _, s := range health.Shards {
		if s.Shard == deadShard && (s.Status != protocol.FleetDown || s.Error == "") {
			t.Errorf("dead shard health: %+v", s)
		}
	}

	// Delta fan-out: healthy shard applies, dead shard reports its
	// error, consistency is (rightly) lost.
	status, raw = post(t, f.rtSrv.URL+"/v1/corpus/delta",
		`{"upserts":[{"lang":"pt","title":"Vila Degradada","wikitext":"{{Infobox filme | nome = Vila Degradada}}"}]}`)
	if status != http.StatusOK {
		t.Fatalf("degraded delta status %d: %s", status, raw)
	}
	var dresp protocol.FleetDeltaResponse
	if err := json.Unmarshal(raw, &dresp); err != nil {
		t.Fatal(err)
	}
	if dresp.Status != protocol.FleetDegraded || dresp.Consistent {
		t.Fatalf("degraded delta: %+v", dresp)
	}

	// Invalidate refuses to half-succeed silently.
	status, raw = post(t, f.rtSrv.URL+"/v1/invalidate", `{}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("degraded invalidate status %d: %s", status, raw)
	}

	// Kill the rest: the fleet is down.
	f.shards[1-deadShard].Close()
	getJSON(t, f.rtSrv.URL+"/v1/healthz", &health)
	if health.Status != protocol.FleetDown || health.ShardsHealthy != 0 {
		t.Fatalf("down health: %+v", health)
	}
}

// TestRouterStatelessContract: requests the router cannot serve keep
// the canonical envelopes (bad method, unknown endpoint, pair-scoped
// matchall).
func TestRouterStatelessContract(t *testing.T) {
	f := startFleet(t, 2)
	resp, err := http.Get(f.rtSrv.URL + "/v1/match")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/match: %d", resp.StatusCode)
	}
	status, raw := post(t, f.rtSrv.URL+"/v1/matchall", `{"pair":"pt-en"}`)
	if status != http.StatusBadRequest || !bytes.Contains(raw, []byte("/v1/match")) {
		t.Errorf("pair-scoped matchall via router: %d %s", status, raw)
	}
	resp, err = http.Get(f.rtSrv.URL + "/v1/nope")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown endpoint: %d", resp.StatusCode)
	}
	// Paths outside /v1 get the same structured envelope a replica sends.
	resp, err = http.Get(f.rtSrv.URL + "/match?pair=pt-en")
	if err != nil {
		t.Fatal(err)
	}
	var env protocol.ErrorEnvelope
	err = json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusNotFound || env.Error == nil || env.Error.Code != protocol.CodeNotFound {
		t.Errorf("retired route via router: %d %+v (%v)", resp.StatusCode, env.Error, err)
	}
	status, _ = post(t, f.rtSrv.URL+"/v1/stream", `{"pair":"pt-en","type":"filme"}`)
	if status != http.StatusBadRequest {
		t.Errorf("single-type stream via router: %d", status)
	}
}

// TestRouterAgainstFilteredRestore ties the whole shard story together:
// replicas warm-restored from a filtered snapshot serve their owned
// slice entirely from cache through the router, byte-identical to the
// session that wrote the snapshot.
func TestRouterAgainstFilteredRestore(t *testing.T) {
	c := smallCorpus(t)
	warm := service.New(c)
	ctx := context.Background()
	for _, pair := range []wiki.LanguagePair{wiki.PtEn, wiki.VnEn} {
		if _, err := warm.Match(ctx, pair); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := warm.Save(&buf); err != nil {
		t.Fatal(err)
	}

	const count = 2
	addrs := make([]string, count)
	for i := 0; i < count; i++ {
		s, err := service.RestoreFiltered(c, bytes.NewReader(buf.Bytes()), Owned(i, count))
		if err != nil {
			t.Fatalf("shard %d restore: %v", i, err)
		}
		srv := httptest.NewServer(service.NewHandler(s, service.WithShardGate(shardLabel(i, count), Owned(i, count))))
		t.Cleanup(srv.Close)
		addrs[i] = srv.URL
	}
	rt, err := New(addrs, WithHealthInterval(-1), WithClientOptions(client.WithRetries(0, time.Millisecond)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	rtSrv := httptest.NewServer(rt.Handler())
	t.Cleanup(rtSrv.Close)

	for _, pair := range []string{"pt-en", "vi-en"} {
		status, raw := post(t, rtSrv.URL+"/v1/match", `{"pair":"`+pair+`"}`)
		if status != http.StatusOK {
			t.Fatalf("%s via fleet: %d %s", pair, status, raw)
		}
		var resp protocol.MatchResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Cache.Misses != 0 {
			t.Errorf("%s: shard rebuilt %d artifacts; the filtered restore should have seeded them all", pair, resp.Cache.Misses)
		}
		if resp.Cache.RestoredPairs != 1 {
			t.Errorf("%s: owning shard restored %d pairs, want exactly its 1", pair, resp.Cache.RestoredPairs)
		}
	}
}

// normalizeAudit zeroes the wall-clock and cache-provenance fields of an
// audit body, like normalizeMatchAll.
func normalizeAudit(t *testing.T, raw []byte) []byte {
	t.Helper()
	var resp protocol.AuditResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("decode audit: %v (%s)", err, raw)
	}
	resp.ElapsedMS = 0
	resp.Cache = protocol.CacheStats{}
	for i := range resp.Pairs {
		resp.Pairs[i].ElapsedMS = 0
	}
	out, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestAuditByteIdentical is the audit acceptance gate: a 2-shard routed
// /v1/audit — matching scatter-gathered across the fleet, value
// comparison forwarded to one shard — must serialize byte-identically
// to a single binary's, modulo timings and cache provenance.
func TestAuditByteIdentical(t *testing.T) {
	f := startFleet(t, 2)
	for _, body := range []string{
		`{}`,
		`{"mode":"direct"}`,
		`{"minSeverity":0.5,"limit":5}`,
		`{"pair":"pt-en"}`,
	} {
		gotStatus, got := post(t, f.rtSrv.URL+"/v1/audit", body)
		wantStatus, want := post(t, f.single.URL+"/v1/audit", body)
		if gotStatus != http.StatusOK || wantStatus != http.StatusOK {
			t.Fatalf("%s: router %d, single %d (%s / %s)", body, gotStatus, wantStatus, got, want)
		}
		gotN, wantN := normalizeAudit(t, got), normalizeAudit(t, want)
		if !bytes.Equal(gotN, wantN) {
			t.Errorf("%s: routed audit differs from single binary\nrouter: %s\nsingle: %s", body, gotN, wantN)
		}
	}

	// The report is non-hollow and ranked.
	_, raw := post(t, f.rtSrv.URL+"/v1/audit", `{}`)
	var resp protocol.AuditResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Entities == 0 || resp.Compared == 0 || resp.Clusters == 0 {
		t.Fatalf("hollow routed audit: %+v", resp)
	}
	for i := 1; i < len(resp.Findings); i++ {
		if resp.Findings[i].Severity > resp.Findings[i-1].Severity {
			t.Errorf("routed findings not ranked at %d", i)
		}
	}

	// Canonical validation errors come from the router itself.
	status, raw := post(t, f.rtSrv.URL+"/v1/audit", `{"mode":"nope"}`)
	if status != http.StatusBadRequest {
		t.Fatalf("bad mode via router: %d %s", status, raw)
	}
	status, raw = post(t, f.rtSrv.URL+"/v1/audit", `{"hub":"de"}`)
	if status != http.StatusNotFound {
		t.Fatalf("unknown hub via router: %d %s", status, raw)
	}

	// A shard replica refuses a cluster-less audit: the matching phase
	// belongs to the router.
	status, raw = post(t, f.shards[0].URL+"/v1/audit", `{}`)
	if status != http.StatusBadRequest || !bytes.Contains(raw, []byte("router")) {
		t.Fatalf("replica accepted a cluster-less audit: %d %s", status, raw)
	}
}

// TestAuditStreamThroughRouter: the routed audit stream emits the
// matching phase's pair lines, the ranked finding lines, and a final
// equal (normalized) to the unary routed audit.
func TestAuditStreamThroughRouter(t *testing.T) {
	f := startFleet(t, 2)
	lines := streamLines(t, f.rtSrv.URL+"/v1/audit/stream", `{}`)
	pairLines, findingLines := 0, 0
	var final *protocol.AuditResponse
	for _, line := range lines {
		if line.Pair != nil {
			pairLines++
		}
		if line.Finding != nil {
			findingLines++
		}
		if line.FinalAudit != nil {
			final = line.FinalAudit
		}
	}
	if final == nil || pairLines == 0 {
		t.Fatalf("audit stream: %d pair lines, final %v", pairLines, final != nil)
	}
	if findingLines != len(final.Findings) {
		t.Fatalf("audit stream: %d finding lines, final has %d", findingLines, len(final.Findings))
	}
	_, want := post(t, f.single.URL+"/v1/audit", `{}`)
	finalRaw, err := json.Marshal(final)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(normalizeAudit(t, finalRaw), normalizeAudit(t, want)) {
		t.Error("streamed audit final differs from single-binary audit")
	}
}
