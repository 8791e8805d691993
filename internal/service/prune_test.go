package service

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/protocol"
	"repro/internal/wiki"
)

func f64p(v float64) *float64 { return &v }

// stripTimings marshals r without its timing and cache fields, the only
// parts of a response that legitimately differ between equivalent runs.
func stripTimings(t *testing.T, r *protocol.MatchResponse) []byte {
	t.Helper()
	cp := *r
	cp.ElapsedMS = 0
	cp.Cache = protocol.CacheStats{}
	cp.Results = append([]protocol.TypeResult(nil), r.Results...)
	for i := range cp.Results {
		cp.Results[i].ElapsedMS = 0
	}
	b, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServeMatchScoringOverrides sends per-request tlsi overrides against
// one warm session. An override equal to the session's threshold must
// reproduce the default response byte for byte, a different one must
// answer exactly as a session configured with that threshold does, and
// no override run may rebuild an artifact: thresholds are match-time
// parameters, so the cached dictionaries and LSI models are reused.
func TestServeMatchScoringOverrides(t *testing.T) {
	s := New(smallCorpus(t))
	ctx := context.Background()
	warm, err := s.ServeMatch(ctx, protocol.MatchRequest{Pair: "pt-en"})
	if err != nil {
		t.Fatal(err)
	}
	misses := s.CacheStats().Misses
	same, err := s.ServeMatch(ctx, protocol.MatchRequest{Pair: "pt-en", TLSI: f64p(s.Config().TLSI)})
	if err != nil {
		t.Fatal(err)
	}
	if string(stripTimings(t, same)) != string(stripTimings(t, warm)) {
		t.Fatal("tlsi override equal to the session threshold changed the response")
	}
	over, err := s.ServeMatch(ctx, protocol.MatchRequest{Pair: "pt-en", TLSI: f64p(0.3)})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.CacheStats().Misses; got != misses {
		t.Fatalf("tlsi overrides rebuilt artifacts: misses %d → %d", misses, got)
	}
	want, err := New(smallCorpus(t), WithTLSI(0.3)).ServeMatch(ctx, protocol.MatchRequest{Pair: "pt-en"})
	if err != nil {
		t.Fatal(err)
	}
	if string(stripTimings(t, over)) != string(stripTimings(t, want)) {
		t.Fatal("tlsi override differs from a session configured with that threshold")
	}
	if string(stripTimings(t, over)) == string(stripTimings(t, warm)) {
		t.Fatal("tlsi 0.3 answers like the default; the fixture cannot tell an ignored override")
	}
}

// TestServeMatchSingleTypeOverride exercises the single-type path with a
// tlsi override, which shares matcherFor with the pair path.
func TestServeMatchSingleTypeOverride(t *testing.T) {
	s := New(smallCorpus(t))
	ctx := context.Background()
	req := protocol.MatchRequest{Pair: wiki.PtEn.String(), Type: "filme"}
	if _, err := s.ServeMatch(ctx, req); err != nil {
		t.Fatal(err)
	}
	misses := s.CacheStats().Misses
	req.TLSI = f64p(0.3)
	over, err := s.ServeMatch(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.CacheStats().Misses; got != misses {
		t.Fatalf("single-type tlsi override rebuilt artifacts: misses %d → %d", misses, got)
	}
	req.TLSI = nil
	want, err := New(smallCorpus(t), WithTLSI(0.3)).ServeMatch(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if string(stripTimings(t, over)) != string(stripTimings(t, want)) {
		t.Fatal("single-type tlsi override differs from a session configured with that threshold")
	}
}
