// Package protocol defines wire protocol v1 of the WikiMatch service:
// the typed request model, the structured error envelope, and every
// response DTO the /v1/ HTTP API and the Go client SDK exchange.
//
// The package is deliberately the single source of truth for request
// validation. The in-process Session (internal/service), the HTTP
// handlers, and the CLI all funnel requests through
// MatchRequest.Validate, so a request rejected over the wire is
// rejected identically in process — and anything the validator accepts
// has fully resolved, typed fields (a wiki.LanguagePair, a multi.Mode)
// by the time matching code sees it.
package protocol

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/multi"
	"repro/internal/wiki"
)

// Version is the wire protocol version, also the URL prefix ("/v1")
// every typed endpoint is mounted under.
const Version = "v1"

// MatchRequest is the one request model of protocol v1. The same shape
// drives every matching endpoint:
//
//   - a pair request (All false, Type empty) runs one language pair end
//     to end — POST /v1/match or /v1/stream;
//   - a single-type request (Type set) restricts the pair to one
//     source-language entity type — POST /v1/match;
//   - an all-pairs request (All true) runs the multilingual batch with
//     Mode/Hub/Workers — POST /v1/matchall or /v1/stream.
//
// TSim/TLSI/TEg optionally override the session's matching thresholds
// for this request only. Thresholds are match-time parameters, not
// artifact-shaping ones, so an overridden request still reuses the
// session's cached dictionaries and LSI models.
type MatchRequest struct {
	// Pair is the language pair, "pt-en" style ("vn-en" is accepted as an
	// alias of the paper's Vietnamese–English pair). Empty defaults to
	// pt-en. Must be empty on all-pairs requests.
	Pair string `json:"pair,omitempty"`
	// Type restricts the pair match to one source-language entity type.
	Type string `json:"type,omitempty"`
	// All selects the all-pairs multilingual batch.
	All bool `json:"all,omitempty"`
	// Mode is the batch coverage, "pivot" (default) or "direct".
	Mode string `json:"mode,omitempty"`
	// Hub is the pivot edition. Empty resolves against the corpus:
	// "en" when the corpus has an English edition, otherwise its
	// lexicographically first language (multi.DefaultHub).
	Hub string `json:"hub,omitempty"`
	// Workers bounds concurrent pairs in a batch; 0 means GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
	// TSim/TLSI/TEg override the session's thresholds for this request.
	TSim *float64 `json:"tsim,omitempty"`
	TLSI *float64 `json:"tlsi,omitempty"`
	TEg  *float64 `json:"teg,omitempty"`
}

// Resolved is a validated MatchRequest with every field parsed into its
// typed form.
type Resolved struct {
	All       bool
	Pair      wiki.LanguagePair
	Type      string
	Multi     multi.Options
	Overrides Overrides
}

// Overrides carries the per-request match-time overrides; nil fields
// keep the session's configuration.
type Overrides struct {
	TSim, TLSI, TEg *float64
}

// Empty reports whether no override is set.
func (o Overrides) Empty() bool {
	return o.TSim == nil && o.TLSI == nil && o.TEg == nil
}

// Apply returns cfg with the overrides applied. Only matching
// thresholds can be overridden, so the artifact-shaping fields
// (dictionary use, LSI rank, SVD path) are untouched by construction.
func (o Overrides) Apply(cfg core.Config) core.Config {
	if o.TSim != nil {
		cfg.TSim = *o.TSim
	}
	if o.TLSI != nil {
		cfg.TLSI = *o.TLSI
	}
	if o.TEg != nil {
		cfg.TEg = *o.TEg
	}
	return cfg
}

// Validate checks the request and resolves it into typed fields. Every
// returned error is a *Error with CodeInvalidArgument.
func (r MatchRequest) Validate() (Resolved, error) {
	res := Resolved{All: r.All, Type: r.Type, Overrides: Overrides{
		TSim: r.TSim, TLSI: r.TLSI, TEg: r.TEg,
	}}
	for _, th := range []struct {
		name string
		v    *float64
	}{{"tsim", r.TSim}, {"tlsi", r.TLSI}, {"teg", r.TEg}} {
		if th.v != nil && (*th.v < 0 || *th.v > 1) {
			return Resolved{}, Errorf(CodeInvalidArgument, "invalid %s %v (want a threshold in [0,1])", th.name, *th.v)
		}
	}
	if r.All {
		if r.Pair != "" {
			return Resolved{}, Errorf(CodeInvalidArgument, "all-pairs request must not set pair (got %q)", r.Pair)
		}
		if r.Type != "" {
			return Resolved{}, Errorf(CodeInvalidArgument, "all-pairs request must not set type (got %q)", r.Type)
		}
		res.Multi = multi.Options{Mode: multi.ModePivot, Workers: r.Workers}
		if r.Mode != "" {
			mode, err := multi.ParseMode(r.Mode)
			if err != nil {
				return Resolved{}, &Error{Code: CodeInvalidArgument, Message: err.Error()}
			}
			res.Multi.Mode = mode
		}
		if r.Hub != "" {
			hub := wiki.Language(r.Hub)
			if !hub.Valid() {
				return Resolved{}, Errorf(CodeInvalidArgument, "invalid hub language %q", r.Hub)
			}
			res.Multi.Hub = hub
		}
		if r.Workers < 0 {
			return Resolved{}, Errorf(CodeInvalidArgument, "invalid workers %d", r.Workers)
		}
		return res, nil
	}
	if r.Mode != "" || r.Hub != "" || r.Workers != 0 {
		return Resolved{}, Errorf(CodeInvalidArgument, "mode, hub and workers apply only to all-pairs requests (set \"all\": true)")
	}
	if r.Pair == "" {
		res.Pair = wiki.PtEn
		return res, nil
	}
	pair, err := ParsePair(r.Pair)
	if err != nil {
		return Resolved{}, &Error{Code: CodeInvalidArgument, Message: err.Error()}
	}
	res.Pair = pair
	return res, nil
}

// ParsePair parses a "pt-en"-style language pair. "vn-en" is accepted
// as an alias of the paper's Vietnamese–English pair. Because edition
// codes may themselves contain hyphens ("zh-min-nan"), a colon is
// accepted as an unambiguous separator ("zh-min-nan:en"); the hyphen
// form remains valid whenever it splits into exactly two codes one way
// ("pt-en", "zh-min-nan-en" is rejected as ambiguous).
func ParsePair(s string) (wiki.LanguagePair, error) {
	if s == "vn-en" {
		return wiki.VnEn, nil
	}
	if a, b, ok := strings.Cut(s, ":"); ok {
		pair := wiki.LanguagePair{A: wiki.Language(a), B: wiki.Language(b)}
		if !pair.A.Valid() || !pair.B.Valid() || strings.Contains(b, ":") {
			return wiki.LanguagePair{}, fmt.Errorf("invalid language pair %q (want e.g. %q or %q)", s, "pt-en", "zh-min-nan:en")
		}
		return pair, nil
	}
	switch strings.Count(s, "-") {
	case 1:
		a, b, _ := strings.Cut(s, "-")
		pair := wiki.LanguagePair{A: wiki.Language(a), B: wiki.Language(b)}
		if !pair.A.Valid() || !pair.B.Valid() {
			return wiki.LanguagePair{}, fmt.Errorf("invalid language pair %q (want e.g. %q)", s, "pt-en")
		}
		return pair, nil
	case 0:
		return wiki.LanguagePair{}, fmt.Errorf("invalid language pair %q (want e.g. %q)", s, "pt-en")
	default:
		// Multiple hyphens: every split point could be valid
		// ("zh-min-nan-en" is zh-min-nan/en or zh/min-nan-en …), so
		// require the colon form instead of guessing.
		return wiki.LanguagePair{}, fmt.Errorf("ambiguous language pair %q: edition codes may contain hyphens, separate them with a colon (e.g. %q)", s, "zh-min-nan:en")
	}
}
