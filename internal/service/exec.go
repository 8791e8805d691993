package service

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/multi"
	"repro/internal/protocol"
	"repro/internal/wiki"
)

// The typed execution path of protocol v1. ServeMatch, ServeMatchAll
// and ServeStream are the one implementation behind the HTTP handlers,
// the Go client's in-process backend and the CLI: every entrypoint
// builds a protocol.MatchRequest and funnels it through here, so
// validation, threshold overrides and response assembly cannot drift
// between surfaces.

// ServeMatch answers a pair or single-type MatchRequest. All-pairs
// requests are rejected — they belong to ServeMatchAll.
func (s *Session) ServeMatch(ctx context.Context, req protocol.MatchRequest) (*protocol.MatchResponse, error) {
	r, err := req.Validate()
	if err != nil {
		return nil, err
	}
	if r.All {
		return nil, protocol.Errorf(protocol.CodeInvalidArgument, "all-pairs request must be sent to /v1/matchall")
	}
	m := s.matcherFor(r.Overrides)
	start := time.Now()
	if r.Type != "" {
		typeB, err := s.counterpartType(ctx, r)
		if err != nil {
			return nil, err
		}
		tr, err := s.matchTypeWith(ctx, r.Pair, r.Type, typeB, m)
		if err != nil {
			return nil, protocol.FromErr(err)
		}
		return &protocol.MatchResponse{
			Pair:      r.Pair.String(),
			Types:     [][2]string{{r.Type, typeB}},
			Results:   []protocol.TypeResult{typeResultDTO(tr, msSince(start))},
			ElapsedMS: msSince(start),
			Cache:     s.CacheStats(),
		}, nil
	}
	res, err := s.matchWith(ctx, r.Pair, m)
	if err != nil {
		return nil, protocol.FromErr(err)
	}
	resp := &protocol.MatchResponse{
		Pair:      r.Pair.String(),
		Types:     res.Types,
		ElapsedMS: msSince(start),
		Cache:     s.CacheStats(),
	}
	for _, tp := range res.Types {
		resp.Results = append(resp.Results, typeResultDTO(res.PerType[tp], 0))
	}
	return resp, nil
}

// ServeMatchAll answers an all-pairs MatchRequest. Pair-scoped requests
// are rejected — they belong to ServeMatch.
func (s *Session) ServeMatchAll(ctx context.Context, req protocol.MatchRequest) (*protocol.MatchAllResponse, error) {
	req.All = true
	r, err := req.Validate()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := multi.Run(ctx, s.pairMatcherFor(r.Overrides), s.Corpus().Languages(), r.Multi)
	if err != nil {
		return nil, protocol.FromErr(err)
	}
	resp := MatchAllDTO(res, msSince(start), s.CacheStats())
	return &resp, nil
}

// ServeStream runs a MatchRequest with streamed progress: pair-scoped
// requests emit one Type line per finished entity type and close with a
// FinalMatch line; all-pairs requests emit one Pair line per finished
// language pair and close with a FinalAll line. The channel is buffered
// for the whole run, so an abandoned consumer never strands the
// workers; after a cancellation, Error lines record the skipped work
// and the final line is withheld. Single-type requests cannot stream.
func (s *Session) ServeStream(ctx context.Context, req protocol.MatchRequest) (<-chan protocol.StreamLine, error) {
	r, err := req.Validate()
	if err != nil {
		return nil, err
	}
	if r.Type != "" {
		return nil, protocol.Errorf(protocol.CodeInvalidArgument, "single-type requests cannot stream; use /v1/match")
	}
	if r.All {
		updates, err := multi.Stream(ctx, s.pairMatcherFor(r.Overrides), s.Corpus().Languages(), r.Multi)
		if err != nil {
			return nil, protocol.FromErr(err)
		}
		return RelayAllStream(updates, s.CacheStats), nil
	}
	start := time.Now()
	updates, err := s.streamWith(ctx, r.Pair, s.matcherFor(r.Overrides))
	if err != nil {
		return nil, protocol.FromErr(err)
	}
	return s.relayPairStream(r, start, updates), nil
}

// relayPairStream translates the session's TypeUpdate stream into
// protocol lines, assembling the FinalMatch summary when every type
// completed. The output channel is buffered for the whole stream.
func (s *Session) relayPairStream(r protocol.Resolved, start time.Time, updates <-chan TypeUpdate) <-chan protocol.StreamLine {
	out := make(chan protocol.StreamLine, cap(updates)+2)
	go func() {
		defer close(out)
		done, failed := 0, false
		byType := make(map[string]protocol.TypeResult)
		var types [][2]string
		total := 0
		for u := range updates {
			done++
			total = u.Total
			line := protocol.StreamLine{Done: done, Total: u.Total}
			if u.Err != nil {
				failed = true
				line.Error = protocol.FromErr(u.Err)
			} else {
				dto := typeResultDTO(u.Result, 0)
				byType[u.TypeA] = dto
				types = append(types, [2]string{u.TypeA, u.TypeB})
				line.Type = &dto
			}
			out <- line
		}
		if failed {
			return
		}
		final := &protocol.MatchResponse{
			Pair:      r.Pair.String(),
			Types:     sortTypePairs(types),
			ElapsedMS: msSince(start),
			Cache:     s.CacheStats(),
		}
		for _, tp := range final.Types {
			final.Results = append(final.Results, byType[tp[0]])
		}
		out <- protocol.StreamLine{Done: done, Total: total, FinalMatch: final}
	}()
	return out
}

// RelayAllStream translates multi's Update stream into protocol lines:
// one Pair line per finished language pair, then a FinalAll line built
// by MatchAllDTO. cache supplies the cache-stats snapshot stamped into
// the final response at assembly time. The output channel is buffered
// for the whole stream, like the input. Exported for the fleet router,
// whose scatter-gathered all-pairs stream rides the same relay as a
// single binary's.
func RelayAllStream(updates <-chan multi.Update, cache func() protocol.CacheStats) <-chan protocol.StreamLine {
	out := make(chan protocol.StreamLine, cap(updates)+1)
	go func() {
		defer close(out)
		start := time.Now()
		for u := range updates {
			line := protocol.StreamLine{Done: u.Done, Total: u.Total}
			if u.Outcome != nil {
				p := PairOutcomeDTO(u.Outcome)
				line.Pair = &p
			}
			if u.Final != nil {
				final := MatchAllDTO(u.Final, msSince(start), cache())
				line.FinalAll = &final
			}
			out <- line
		}
	}()
	return out
}

// Stats snapshots the corpus, cache and configuration — the body of
// GET /v1/corpus.
func (s *Session) Stats() protocol.StatsResponse {
	return protocol.StatsResponse{
		Corpus: s.Corpus().Stats(),
		Cache:  s.CacheStats(),
		Config: s.cfg,
	}
}

// matcherFor resolves the matcher a request runs with: the session's
// own for override-free requests, a throwaway matcher with the
// overridden thresholds otherwise. Overrides never reach artifact
// construction, so both share the session's cache.
func (s *Session) matcherFor(o protocol.Overrides) *core.Matcher {
	if o.Empty() {
		return s.m
	}
	return core.NewMatcher(o.Apply(s.cfg))
}

// pairMatcherFor is matcherFor lifted to the batch scheduler's
// PairMatcher interface.
func (s *Session) pairMatcherFor(o protocol.Overrides) multi.PairMatcher {
	if o.Empty() {
		return s
	}
	return overridePairMatcher{s: s, m: core.NewMatcher(o.Apply(s.cfg))}
}

// overridePairMatcher routes batch pairs through the session's artifact
// cache while scoring with an override matcher.
type overridePairMatcher struct {
	s *Session
	m *core.Matcher
}

func (p overridePairMatcher) Match(ctx context.Context, pair wiki.LanguagePair) (*core.Result, error) {
	return p.s.matchWith(ctx, pair, p.m)
}

// MatchAllDTO flattens a batch result for the wire. It is the one
// assembly path for MatchAllResponse bodies — the session's ServeMatchAll
// and the fleet router's scatter-gather both call it, so a routed batch
// serializes byte-identically to a single binary's.
func MatchAllDTO(res *multi.BatchResult, elapsedMS float64, cache protocol.CacheStats) protocol.MatchAllResponse {
	resp := protocol.MatchAllResponse{
		Mode:      res.Plan.Mode.String(),
		Hub:       res.Plan.Hub.String(),
		Planned:   []string{},
		Clusters:  res.Clusters,
		ElapsedMS: elapsedMS,
		Cache:     cache,
	}
	if resp.Clusters == nil {
		resp.Clusters = []multi.Cluster{}
	}
	for _, pair := range res.Plan.Pairs {
		resp.Planned = append(resp.Planned, pair.String())
	}
	for i := range res.Outcomes {
		resp.Pairs = append(resp.Pairs, PairOutcomeDTO(&res.Outcomes[i]))
	}
	for _, cl := range res.Clusters {
		resp.Conflicts += len(cl.Conflicts)
	}
	return resp
}

// PairOutcomeDTO flattens one batch pair outcome for the wire. Exported
// alongside MatchAllDTO for the fleet router's stream relay.
func PairOutcomeDTO(o *multi.PairOutcome) protocol.MatchAllPair {
	out := protocol.MatchAllPair{
		Pair:            o.Pair.String(),
		Correspondences: o.Correspondences(),
		ElapsedMS:       float64(o.Elapsed) / float64(time.Millisecond),
	}
	if o.Result != nil {
		out.Types = len(o.Result.Types)
	}
	if o.Err != nil {
		out.Error = o.Err.Error()
	}
	return out
}

// typeResultDTO flattens one TypeResult for the wire, with per-pair
// confidences attached.
func typeResultDTO(tr *core.TypeResult, elapsedMS float64) protocol.TypeResult {
	out := protocol.TypeResult{
		TypeA:      tr.TypeA,
		TypeB:      tr.TypeB,
		Attributes: len(tr.TD.Attrs),
		Candidates: len(tr.Candidates),
		ElapsedMS:  elapsedMS,
	}
	for _, p := range tr.CrossPairsSorted() {
		out.Correspondences = append(out.Correspondences, protocol.Correspondence{
			A: p[0], B: p[1], Confidence: tr.Confidence(p[0], p[1]),
		})
	}
	return out
}

// counterpartType resolves the aligned counterpart of a single-type
// request's source type, or a CodeNotFound error.
func (s *Session) counterpartType(ctx context.Context, r protocol.Resolved) (string, error) {
	types, err := s.Types(ctx, r.Pair)
	if err != nil {
		return "", protocol.FromErr(err)
	}
	for _, tp := range types {
		if tp[0] == r.Type {
			return tp[1], nil
		}
	}
	return "", protocol.Errorf(protocol.CodeNotFound, "no matched entity type %q for pair %s", r.Type, r.Pair)
}

// sortTypePairs orders an alignment by source type — the deterministic
// order Match responses use.
func sortTypePairs(types [][2]string) [][2]string {
	for i := 1; i < len(types); i++ {
		for j := i; j > 0 && types[j][0] < types[j-1][0]; j-- {
			types[j], types[j-1] = types[j-1], types[j]
		}
	}
	return types
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
