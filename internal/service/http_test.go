package service

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/protocol"
	"repro/internal/text"
)

// startServer spins up the full HTTP API over a session on the small
// generated corpus.
func startServer(t *testing.T) (*httptest.Server, *Session) {
	t.Helper()
	s := New(smallCorpus(t))
	srv := httptest.NewServer(NewHandler(s))
	t.Cleanup(srv.Close)
	return srv, s
}

func getJSON(t *testing.T, url string, wantStatus int, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
}

// TestHTTPMatchEndToEnd drives /v1/corpus, /v1/match (pair and single
// type) and the NDJSON /v1/stream against a generated corpus through a
// real HTTP round-trip.
func TestHTTPMatchEndToEnd(t *testing.T) {
	srv, _ := startServer(t)

	// Corpus stats.
	var stats protocol.StatsResponse
	getJSON(t, srv.URL+"/v1/corpus", http.StatusOK, &stats)
	if stats.Corpus.Articles["pt"] == 0 || stats.Corpus.Articles["en"] == 0 {
		t.Fatalf("stats missing articles: %+v", stats.Corpus.Articles)
	}
	if stats.Config.TSim != 0.6 {
		t.Errorf("config TSim = %v over the wire", stats.Config.TSim)
	}

	// Full match.
	var match protocol.MatchResponse
	if got := postEnvelope(t, srv.URL+"/v1/match", `{"pair":"pt-en"}`, &match); got != http.StatusOK {
		t.Fatalf("match: status %d", got)
	}
	if match.Pair != "pt-en" || len(match.Types) == 0 || len(match.Results) != len(match.Types) {
		t.Fatalf("bad match response: pair=%s types=%d results=%d",
			match.Pair, len(match.Types), len(match.Results))
	}
	found := false
	for _, r := range match.Results {
		if r.TypeA != "filme" {
			continue
		}
		for _, corr := range r.Correspondences {
			if corr.A == text.Normalize("direção") && corr.B == "directed by" {
				found = true
				if corr.Confidence <= 0 || corr.Confidence > 1 {
					t.Errorf("confidence out of range: %v", corr.Confidence)
				}
			}
		}
	}
	if !found {
		t.Error("direção ~ directed by correspondence missing from /v1/match output")
	}
	if match.Cache.TypeEntries == 0 {
		t.Errorf("cache stats not populated: %+v", match.Cache)
	}

	// Warm repeat must hit the cache.
	var warm protocol.MatchResponse
	if got := postEnvelope(t, srv.URL+"/v1/match", `{"pair":"pt-en"}`, &warm); got != http.StatusOK {
		t.Fatalf("warm match: status %d", got)
	}
	if warm.Cache.Hits <= match.Cache.Hits {
		t.Errorf("second /v1/match did not hit the cache: %d → %d hits",
			match.Cache.Hits, warm.Cache.Hits)
	}

	// Single type.
	var one protocol.MatchResponse
	if got := postEnvelope(t, srv.URL+"/v1/match", `{"pair":"pt-en","type":"filme"}`, &one); got != http.StatusOK {
		t.Fatalf("single-type match: status %d", got)
	}
	if len(one.Results) != 1 || one.Results[0].TypeA != "filme" || one.Results[0].TypeB != "film" ||
		len(one.Results[0].Correspondences) == 0 {
		t.Errorf("bad single-type response: %+v", one.Results)
	}

	// NDJSON stream: one type line per type, same types as the full
	// match, then the final summary.
	resp, err := http.Post(srv.URL+"/v1/stream", "application/json", strings.NewReader(`{"pair":"pt-en"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream Content-Type = %q", ct)
	}
	streamed := map[string]int{}
	finals := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line protocol.StreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Type != nil:
			streamed[line.Type.TypeA] = len(line.Type.Correspondences)
		case line.FinalMatch != nil:
			finals++
		default:
			t.Fatalf("NDJSON line is neither a type nor the final summary: %q", sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if finals != 1 {
		t.Errorf("stream carried %d final lines, want 1", finals)
	}
	if len(streamed) != len(match.Types) {
		t.Fatalf("streamed %d types, want %d", len(streamed), len(match.Types))
	}
	for _, r := range match.Results {
		if streamed[r.TypeA] != len(r.Correspondences) {
			t.Errorf("type %s: stream has %d correspondences, /v1/match has %d",
				r.TypeA, streamed[r.TypeA], len(r.Correspondences))
		}
	}
}

// TestHTTPVnEnAndErrors covers the second pair, bad inputs, and cache
// invalidation over the wire.
func TestHTTPVnEnAndErrors(t *testing.T) {
	srv, sess := startServer(t)

	var match protocol.MatchResponse
	if got := postEnvelope(t, srv.URL+"/v1/match", `{"pair":"vi-en"}`, &match); got != http.StatusOK {
		t.Fatalf("vi-en: status %d", got)
	}
	if match.Pair != "vi-en" || len(match.Types) == 0 {
		t.Fatalf("bad vi-en response: %+v", match.Pair)
	}
	// The vn-en alias resolves to the same pair.
	var alias protocol.MatchResponse
	if got := postEnvelope(t, srv.URL+"/v1/match", `{"pair":"vn-en"}`, &alias); got != http.StatusOK {
		t.Fatalf("vn-en: status %d", got)
	}
	if alias.Pair != "vi-en" {
		t.Errorf("vn-en alias resolved to %q", alias.Pair)
	}

	if got := postEnvelope(t, srv.URL+"/v1/match", `{"pair":"bogus"}`, nil); got != http.StatusBadRequest {
		t.Errorf("bogus pair: status %d, want 400", got)
	}
	// Retired scoring knobs: exhaustive scoring is a core validation
	// switch, not a wire field, so the strict decoder rejects both like
	// any unknown field.
	for _, body := range []string{`{"pair":"pt-en","exactScore":true}`, `{"pair":"pt-en","candidates":4}`} {
		if got := postEnvelope(t, srv.URL+"/v1/match", body, nil); got != http.StatusBadRequest {
			t.Errorf("retired field %s: status %d, want 400", body, got)
		}
	}
	if got := postEnvelope(t, srv.URL+"/v1/match", `{"pair":"pt-en","type":"definitely-not-a-type"}`, nil); got != http.StatusNotFound {
		t.Errorf("unknown type: status %d, want 404", got)
	}

	// Invalidate Vietnamese artifacts over the wire.
	var inv protocol.InvalidateResponse
	if got := postEnvelope(t, srv.URL+"/v1/invalidate", `{"lang":"vi"}`, &inv); got != http.StatusOK {
		t.Fatalf("invalidate: status %d", got)
	}
	if inv.Dropped == 0 {
		t.Error("invalidate dropped nothing")
	}
	// The vi-en entries are gone; the pt-en pair entry (created by the
	// single-type lookup above) survives.
	if st := sess.CacheStats(); st.PairEntries != 1 {
		t.Errorf("pair entries after Invalidate(vi) = %d, want 1: %+v", st.PairEntries, st)
	}

	if got := postEnvelope(t, srv.URL+"/v1/invalidate", `{"lang":"UPPER"}`, nil); got != http.StatusBadRequest {
		t.Errorf("invalid lang: status %d, want 400", got)
	}
}
