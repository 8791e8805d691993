package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/protocol"
)

// Output checks. An answer passes when it equals a reference computed
// during set-up by a fresh, cold, in-process session over the same
// corpus, once the fields that legitimately differ between two runs of
// the same work — elapsed times and cache counters — are left out.

// checkMatch compares a /v1/match answer with its reference: the
// entity-type alignment, and per type the attribute and candidate
// counts and every correspondence with its confidence.
func checkMatch(got, want *protocol.MatchResponse) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("match %s %q: %s", want.Pair, singleType(want), fmt.Sprintf(format, args...))
	}
	if got.Pair != want.Pair {
		return fail("pair %q", got.Pair)
	}
	if len(got.Types) != len(want.Types) {
		return fail("%d types, want %d", len(got.Types), len(want.Types))
	}
	for i := range want.Types {
		if got.Types[i] != want.Types[i] {
			return fail("type %d is %v, want %v", i, got.Types[i], want.Types[i])
		}
	}
	if len(got.Results) != len(want.Results) {
		return fail("%d results, want %d", len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		g, w := &got.Results[i], &want.Results[i]
		if g.TypeA != w.TypeA || g.TypeB != w.TypeB || g.Attributes != w.Attributes || g.Candidates != w.Candidates {
			return fail("result %d is %s/%s (%d attributes, %d candidates), want %s/%s (%d, %d)",
				i, g.TypeA, g.TypeB, g.Attributes, g.Candidates, w.TypeA, w.TypeB, w.Attributes, w.Candidates)
		}
		if len(g.Correspondences) != len(w.Correspondences) {
			return fail("type %s: %d correspondences, want %d", w.TypeA, len(g.Correspondences), len(w.Correspondences))
		}
		for j := range w.Correspondences {
			if g.Correspondences[j] != w.Correspondences[j] {
				return fail("type %s: correspondence %d is %+v, want %+v", w.TypeA, j, g.Correspondences[j], w.Correspondences[j])
			}
		}
	}
	return nil
}

// singleType names the requested type of a single-type answer ("" for
// a full pair).
func singleType(r *protocol.MatchResponse) string {
	if len(r.Types) == 1 && len(r.Results) == 1 {
		return r.Types[0][0]
	}
	return ""
}

// matchAllDigest hashes what a matchall answer decided — plan, per-pair
// type and correspondence counts and errors, clusters and conflicts —
// leaving out elapsed times and cache counters.
func matchAllDigest(r *protocol.MatchAllResponse) (string, error) {
	scrubbed := *r
	scrubbed.ElapsedMS = 0
	scrubbed.Cache = protocol.CacheStats{}
	scrubbed.Pairs = make([]protocol.MatchAllPair, len(r.Pairs))
	for i, p := range r.Pairs {
		p.ElapsedMS = 0
		scrubbed.Pairs[i] = p
	}
	raw, err := json.Marshal(scrubbed)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// checkMatchAll verifies a matchall answer: no pair failed, and the
// digest equals the reference's.
func checkMatchAll(got *protocol.MatchAllResponse, wantDigest string) error {
	for _, p := range got.Pairs {
		if p.Error != "" {
			return fmt.Errorf("matchall: pair %s failed: %s", p.Pair, p.Error)
		}
	}
	digest, err := matchAllDigest(got)
	if err != nil {
		return fmt.Errorf("matchall: digest: %w", err)
	}
	if digest != wantDigest {
		return fmt.Errorf("matchall: digest %.12s, want %.12s", digest, wantDigest)
	}
	return nil
}
