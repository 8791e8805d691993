package protocol

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/multi"
	"repro/internal/wiki"
)

// Correspondence is one derived cross-language attribute
// correspondence.
type Correspondence struct {
	A          string  `json:"a"`
	B          string  `json:"b"`
	Confidence float64 `json:"confidence"`
}

// TypeResult is the wire form of one entity type's alignment outcome.
type TypeResult struct {
	TypeA           string           `json:"typeA"`
	TypeB           string           `json:"typeB"`
	Attributes      int              `json:"attributes"`
	Candidates      int              `json:"candidates"`
	Correspondences []Correspondence `json:"correspondences"`
	ElapsedMS       float64          `json:"elapsedMs"`
}

// CacheStats is a snapshot of a session's artifact cache. RestoredPairs
// and RestoredTypes count entries a warm start seeded from a persisted
// snapshot; they stay 0 for cold sessions. Misses count completed
// builds only; Failures counts builds that did not complete (in
// practice: cancelled contexts) and is omitted while zero so the
// failure-free wire bodies are unchanged from earlier protocol
// revisions.
type CacheStats struct {
	PairEntries   int    `json:"pairEntries"`
	TypeEntries   int    `json:"typeEntries"`
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Failures      uint64 `json:"failures,omitempty"`
	RestoredPairs int    `json:"restoredPairs"`
	RestoredTypes int    `json:"restoredTypes"`
}

// MatchResponse answers a pair or single-type match. A single-type
// request returns the one requested type in Types/Results.
type MatchResponse struct {
	Pair      string       `json:"pair"`
	Types     [][2]string  `json:"types"`
	Results   []TypeResult `json:"results"`
	ElapsedMS float64      `json:"elapsedMs"`
	Cache     CacheStats   `json:"cache"`
}

// Result reconstructs the core result a remote matcher computed, from
// its wire response: the entity-type alignment plus, per type, the
// correspondence set and its confidences (via core.NewTypeResult). The
// reconstruction carries exactly what the cluster builder
// (multi.BuildClusters) consumes — Types, Cross and per-pair
// Confidence — so a router can scatter pair matches across a shard
// fleet and merge the wire responses into clusters identical to a
// single binary's: float64 confidences round-trip exactly through
// JSON, and Confidence on a reconstructed result returns the stored
// wire values rather than recomputing.
func (r *MatchResponse) Result() (*core.Result, error) {
	pair, err := ParsePair(r.Pair)
	if err != nil {
		return nil, err
	}
	res := &core.Result{
		Pair:    pair,
		Types:   append([][2]string(nil), r.Types...),
		PerType: make(map[[2]string]*core.TypeResult, len(r.Results)),
	}
	for i := range r.Results {
		tr := &r.Results[i]
		cross := make(map[string]map[string]bool)
		conf := make(map[[2]string]float64, len(tr.Correspondences))
		for _, c := range tr.Correspondences {
			m := cross[c.A]
			if m == nil {
				m = make(map[string]bool)
				cross[c.A] = m
			}
			m[c.B] = true
			conf[[2]string{c.A, c.B}] = c.Confidence
		}
		res.PerType[[2]string{tr.TypeA, tr.TypeB}] = core.NewTypeResult(tr.TypeA, tr.TypeB, cross, conf)
	}
	return res, nil
}

// MatchAllPair summarizes one pair's outcome within an all-pairs batch.
type MatchAllPair struct {
	Pair            string  `json:"pair"`
	Types           int     `json:"types"`
	Correspondences int     `json:"correspondences"`
	Error           string  `json:"error,omitempty"`
	ElapsedMS       float64 `json:"elapsedMs"`
}

// MatchAllResponse answers an all-pairs batch: per-pair outcomes plus
// the merged cross-language correspondence clusters. Planned lists the
// canonical pair strings of the resolved plan in plan order, so a
// remote caller can reconstruct which pairs were matched directly.
type MatchAllResponse struct {
	Mode      string          `json:"mode"`
	Hub       string          `json:"hub"`
	Planned   []string        `json:"planned"`
	Pairs     []MatchAllPair  `json:"pairs"`
	Clusters  []multi.Cluster `json:"clusters"`
	Conflicts int             `json:"conflicts"`
	ElapsedMS float64         `json:"elapsedMs"`
	Cache     CacheStats      `json:"cache"`
}

// Plan reconstructs the batch's resolved pair plan from the response.
func (r *MatchAllResponse) Plan() (multi.Plan, error) {
	mode, err := multi.ParseMode(r.Mode)
	if err != nil {
		return multi.Plan{}, err
	}
	p := multi.Plan{Mode: mode, Hub: wiki.Language(r.Hub)}
	for _, raw := range r.Planned {
		pair, err := ParsePair(raw)
		if err != nil {
			return multi.Plan{}, fmt.Errorf("planned pair: %w", err)
		}
		p.Pairs = append(p.Pairs, pair)
	}
	return p, nil
}

// Induced projects the response's clusters back to per-pair
// correspondence sets keyed by entity-type pair, including purely
// transitive pairs the plan never matched directly — the remote twin of
// multi.BatchResult.Induced.
func (r *MatchAllResponse) Induced(pair wiki.LanguagePair) map[[2]string]eval.Correspondences {
	b := multi.BatchResult{Clusters: r.Clusters}
	return b.Induced(pair)
}

// StreamLine is one NDJSON line of POST /v1/stream or
// /v1/audit/stream. Pair-scoped streams emit Type lines and close with
// FinalMatch; all-pairs streams emit Pair progress lines and close with
// FinalAll; audit streams emit Pair lines for the matching phase, then
// ranked Finding lines, and close with FinalAudit. Error lines carry
// the failure that stopped one unit of work without necessarily ending
// the stream.
type StreamLine struct {
	Done       int               `json:"done"`
	Total      int               `json:"total"`
	Type       *TypeResult       `json:"type,omitempty"`
	Pair       *MatchAllPair     `json:"pair,omitempty"`
	Finding    *AuditFinding     `json:"finding,omitempty"`
	FinalMatch *MatchResponse    `json:"finalMatch,omitempty"`
	FinalAll   *MatchAllResponse `json:"finalAll,omitempty"`
	FinalAudit *AuditResponse    `json:"finalAudit,omitempty"`
	Error      *Error            `json:"error,omitempty"`
}

// StatsResponse is the body of GET /v1/corpus.
type StatsResponse struct {
	Corpus wiki.Stats  `json:"corpus"`
	Cache  CacheStats  `json:"cache"`
	Config core.Config `json:"config"`
}

// InvalidateRequest asks the session to drop cached artifacts for one
// language (empty: drop everything).
type InvalidateRequest struct {
	Lang string `json:"lang,omitempty"`
}

// Validate resolves the language. The zero Language (drop everything)
// is valid.
func (r InvalidateRequest) Validate() (wiki.Language, error) {
	lang := wiki.Language(r.Lang)
	if lang != "" && !lang.Valid() {
		return "", Errorf(CodeInvalidArgument, "invalid language %q", r.Lang)
	}
	return lang, nil
}

// InvalidateResponse reports how many cache entries were dropped,
// with the per-kind breakdown the artifact graph tracks: Pairs counts
// dropped pair-level nodes (dictionary + alignment), Types dropped
// type-level nodes (similarity workspace + LSI model); Dropped is
// their sum.
type InvalidateResponse struct {
	Dropped int `json:"dropped"`
	Pairs   int `json:"pairs"`
	Types   int `json:"types"`
}

// SnapshotInfo describes the artifact snapshot a warm-started server
// restored from.
type SnapshotInfo struct {
	Loaded     bool    `json:"loaded"`
	CreatedAt  string  `json:"createdAt,omitempty"`
	AgeSeconds float64 `json:"ageSeconds,omitempty"`
}

// Health is the body of GET /v1/healthz.
type Health struct {
	Status        string       `json:"status"`
	UptimeSeconds float64      `json:"uptimeSeconds"`
	Snapshot      SnapshotInfo `json:"snapshot"`
	Cache         CacheStats   `json:"cache"`
}

// Metrics is the body of GET /v1/metrics: the middleware stack's
// counters since process start. InFlight includes the /v1/metrics
// request reading it.
type Metrics struct {
	RequestsTotal uint64            `json:"requestsTotal"`
	InFlight      int64             `json:"inFlight"`
	ByStatus      map[string]uint64 `json:"byStatus,omitempty"`
	ByRoute       map[string]uint64 `json:"byRoute,omitempty"`
	Shed          uint64            `json:"shed"`
	Panics        uint64            `json:"panics"`
}
