package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/protocol"
	"repro/internal/wiki"
)

// ownOnly builds the keep function of a replica owning exactly the
// given pairs.
func ownOnly(pairs ...wiki.LanguagePair) func(wiki.LanguagePair) bool {
	return func(p wiki.LanguagePair) bool {
		for _, own := range pairs {
			if p == own {
				return true
			}
		}
		return false
	}
}

// TestRestoreFiltered: a shard replica warm-loads only its owned slice
// of a full snapshot, and what it does load serves byte-identically to
// the full restore.
func TestRestoreFiltered(t *testing.T) {
	c := smallCorpus(t)
	ctx := context.Background()
	warm := New(c)
	want := make(map[wiki.LanguagePair]string)
	for _, pair := range []wiki.LanguagePair{wiki.PtEn, wiki.VnEn} {
		res, err := warm.Match(ctx, pair)
		if err != nil {
			t.Fatalf("warm %s: %v", pair, err)
		}
		want[pair] = flattenResult(res)
	}
	var buf bytes.Buffer
	if err := warm.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}

	shard, err := RestoreFiltered(c, bytes.NewReader(buf.Bytes()), ownOnly(wiki.PtEn))
	if err != nil {
		t.Fatalf("RestoreFiltered: %v", err)
	}
	stats := shard.CacheStats()
	if stats.RestoredPairs != 1 {
		t.Errorf("RestoredPairs = %d, want 1 (vn-en slice must be dropped)", stats.RestoredPairs)
	}
	res, err := shard.Match(ctx, wiki.PtEn)
	if err != nil {
		t.Fatalf("shard match: %v", err)
	}
	if got := flattenResult(res); got != want[wiki.PtEn] {
		t.Error("shard-restored pt-en result differs from the warm build")
	}
	if ms := shard.CacheStats().Misses; ms != 0 {
		t.Errorf("owned pair rebuilt %d artifacts after filtered restore", ms)
	}

	// The unowned pair is merely cold, not broken: an in-process caller
	// (no HTTP gate) can still build it from the full corpus.
	res, err = shard.Match(ctx, wiki.VnEn)
	if err != nil {
		t.Fatalf("cold unowned match: %v", err)
	}
	if got := flattenResult(res); got != want[wiki.VnEn] {
		t.Error("cold vn-en rebuild differs from the warm build")
	}

	// A nil keep is a plain Restore.
	full, err := RestoreFiltered(c, bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatalf("nil-keep restore: %v", err)
	}
	if got := full.CacheStats().RestoredPairs; got != 2 {
		t.Errorf("nil-keep RestoredPairs = %d, want 2", got)
	}
}

// shardServer starts the HTTP API gated to own only pt-en.
func shardServer(t *testing.T) *httptest.Server {
	t.Helper()
	s := New(smallCorpus(t))
	srv := httptest.NewServer(NewHandler(s, WithShardGate("shard 0/2", ownOnly(wiki.PtEn))))
	t.Cleanup(srv.Close)
	return srv
}

// postEnvelope POSTs a JSON body and decodes the response into out,
// returning the HTTP status.
func postEnvelope(t *testing.T, url, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestShardGate drives the ownership gate over HTTP: owned pairs serve,
// unowned pairs get a retryable unavailable envelope, all-pairs requests
// are refused, and validation errors keep their canonical shape.
func TestShardGate(t *testing.T) {
	srv := shardServer(t)

	var match protocol.MatchResponse
	if got := postEnvelope(t, srv.URL+"/v1/match", `{"pair":"pt-en"}`, &match); got != http.StatusOK {
		t.Fatalf("owned pair: status %d", got)
	}
	if match.Pair != "pt-en" || len(match.Results) == 0 {
		t.Fatalf("owned pair served a hollow response: %+v", match)
	}

	var env protocol.ErrorEnvelope
	if got := postEnvelope(t, srv.URL+"/v1/match", `{"pair":"vn-en"}`, &env); got != http.StatusServiceUnavailable {
		t.Fatalf("unowned pair: status %d, want 503", got)
	}
	if env.Error == nil || env.Error.Code != protocol.CodeUnavailable || !env.Error.Retryable {
		t.Fatalf("unowned pair envelope: %+v", env.Error)
	}
	if !strings.Contains(env.Error.Message, "shard 0/2") {
		t.Errorf("gate error does not name the shard: %q", env.Error.Message)
	}

	// All-pairs work belongs to the router.
	env = protocol.ErrorEnvelope{}
	if got := postEnvelope(t, srv.URL+"/v1/matchall", `{}`, &env); got != http.StatusBadRequest {
		t.Fatalf("gated matchall: status %d, want 400", got)
	}
	if env.Error == nil || env.Error.Code != protocol.CodeInvalidArgument || !strings.Contains(env.Error.Message, "router") {
		t.Fatalf("gated matchall envelope: %+v", env.Error)
	}
	env = protocol.ErrorEnvelope{}
	if got := postEnvelope(t, srv.URL+"/v1/stream", `{"all":true}`, &env); got != http.StatusBadRequest {
		t.Fatalf("gated all-pairs stream: status %d, want 400", got)
	}

	// A pair-scoped stream for an unowned pair is gated too.
	env = protocol.ErrorEnvelope{}
	if got := postEnvelope(t, srv.URL+"/v1/stream", `{"pair":"vn-en"}`, &env); got != http.StatusServiceUnavailable {
		t.Fatalf("gated stream: status %d, want 503", got)
	}

	// Validation failures keep their canonical error, not the gate's.
	env = protocol.ErrorEnvelope{}
	if got := postEnvelope(t, srv.URL+"/v1/match", `{"pair":"not a pair"}`, &env); got != http.StatusBadRequest {
		t.Fatalf("invalid pair on gated replica: status %d, want 400", got)
	}
	if env.Error == nil || env.Error.Code != protocol.CodeInvalidArgument {
		t.Fatalf("invalid pair envelope: %+v", env.Error)
	}

	// Control-plane and corpus endpoints stay open on a shard.
	var health protocol.Health
	getJSON(t, srv.URL+"/v1/healthz", http.StatusOK, &health)
	if health.Status != "ok" {
		t.Errorf("gated replica health = %q", health.Status)
	}
}
