package service

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/protocol"
	"repro/internal/wiki"
)

func intp(v int) *int { return &v }

// TestServeMatchScoringOverrides sends the same request through the
// default (pruned) path and the candidates overrides, pruning-disabled
// (exhaustive) included, against one warm session. The
// responses must be byte-identical — the overrides change only how the
// scores are computed — and every override run must hit the session's
// artifact cache rather than rebuild.
func TestServeMatchScoringOverrides(t *testing.T) {
	s := New(smallCorpus(t))
	ctx := context.Background()
	base := protocol.MatchRequest{Pair: "pt-en"}
	warm, err := s.ServeMatch(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	misses := s.CacheStats().Misses
	strip := func(r *protocol.MatchResponse) []byte {
		cp := *r
		cp.ElapsedMS = 0
		cp.Cache = protocol.CacheStats{}
		for i := range cp.Results {
			cp.Results[i].ElapsedMS = 0
		}
		b, err := json.Marshal(cp)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want := strip(warm)
	for _, req := range []protocol.MatchRequest{
		{Pair: "pt-en"},
		{Pair: "pt-en", Candidates: intp(-1)},
		{Pair: "pt-en", Candidates: intp(1)},
		{Pair: "pt-en", Candidates: intp(64)},
	} {
		resp, err := s.ServeMatch(ctx, req)
		if err != nil {
			t.Fatalf("ServeMatch(%+v): %v", req, err)
		}
		if got := strip(resp); string(got) != string(want) {
			t.Fatalf("response for %+v differs from the pruned default", req)
		}
	}
	if got := s.CacheStats().Misses; got != misses {
		t.Fatalf("scoring overrides rebuilt artifacts: misses %d → %d", misses, got)
	}
}

// TestSessionScoringOptions checks the scoring option reaches the
// matcher configuration.
func TestSessionScoringOptions(t *testing.T) {
	cfg := New(smallCorpus(t), WithCandidates(-1)).Config()
	if cfg.Candidates != -1 {
		t.Errorf("options not applied: %+v", cfg)
	}
}

// TestServeMatchSingleTypeOverride exercises the single-type path with a
// scoring override, which shares matcherFor with the pair path.
func TestServeMatchSingleTypeOverride(t *testing.T) {
	s := New(smallCorpus(t))
	ctx := context.Background()
	pruned, err := s.ServeMatch(ctx, protocol.MatchRequest{Pair: wiki.PtEn.String(), Type: "filme"})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := s.ServeMatch(ctx, protocol.MatchRequest{
		Pair: wiki.PtEn.String(), Type: "filme", Candidates: intp(-1),
	})
	if err != nil {
		t.Fatal(err)
	}
	pruned.Results[0].ElapsedMS = 0
	ex.Results[0].ElapsedMS = 0
	a, _ := json.Marshal(pruned.Results)
	b, _ := json.Marshal(ex.Results)
	if string(a) != string(b) {
		t.Fatal("single-type exhaustive override changed the result")
	}
}
