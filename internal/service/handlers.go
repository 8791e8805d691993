package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"

	"repro/internal/protocol"
)

// The typed /v1/ endpoints of wire protocol v1. Every matching
// endpoint is POST JSON over protocol.MatchRequest; every error is a
// structured envelope (code / message / retryable / details).

// serverState bundles what the handlers need beyond the session: the
// stack configuration, process start time (for /v1/healthz) and the
// middleware's live counters (for /v1/metrics).
type serverState struct {
	s       *Session
	cfg     HandlerConfig
	started time.Time
	metrics *serverMetrics
}

// NewHandler builds the wikimatchd HTTP API over one shared session:
// the typed /v1/ protocol and the middleware stack (request IDs, access
// log, per-request timeouts, load shedding, panic recovery, metrics)
// around it.
//
//	POST /v1/match         pair or single-type match, JSON in/out
//	POST /v1/matchall      all-pairs batch with correspondence clusters
//	POST /v1/stream        NDJSON progress stream (pair or all-pairs)
//	POST /v1/audit         cross-edition value-consistency report
//	POST /v1/audit/stream  NDJSON audit stream (pairs, findings, final)
//	GET  /v1/corpus        corpus, cache and configuration snapshot
//	POST /v1/corpus/delta  apply article edits, invalidate dirty artifacts
//	POST /v1/invalidate    drop cached artifacts for a language
//	GET  /v1/healthz       liveness: uptime, snapshot age, cache stats
//	GET  /v1/metrics       middleware counters
//
// Every other path, the retired pre-v1 GET routes included, answers
// the structured not_found envelope.
func NewHandler(s *Session, opts ...HandlerOption) http.Handler {
	cfg := DefaultHandlerConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	cfg = cfg.withDefaults()
	st := &serverState{s: s, cfg: cfg, started: time.Now()}
	mux := http.NewServeMux()
	registerV1(mux, st)
	h, metrics := wrapMiddleware(mux, cfg)
	st.metrics = metrics
	return h
}

func registerV1(mux *http.ServeMux, st *serverState) {
	mux.HandleFunc("/v1/match", st.method(http.MethodPost, st.handleMatch))
	mux.HandleFunc("/v1/matchall", st.method(http.MethodPost, st.handleMatchAll))
	mux.HandleFunc("/v1/stream", st.method(http.MethodPost, st.handleStream))
	mux.HandleFunc("/v1/audit", st.method(http.MethodPost, st.handleAudit))
	mux.HandleFunc("/v1/audit/stream", st.method(http.MethodPost, st.handleAuditStream))
	mux.HandleFunc("/v1/corpus", st.method(http.MethodGet, st.handleCorpus))
	mux.HandleFunc("/v1/corpus/delta", st.method(http.MethodPost, st.handleDelta))
	mux.HandleFunc("/v1/invalidate", st.method(http.MethodPost, st.handleInvalidate))
	mux.HandleFunc("/v1/healthz", st.method(http.MethodGet, st.handleHealthz))
	mux.HandleFunc("/v1/metrics", st.method(http.MethodGet, st.handleMetrics))
	// Unknown routes get the structured envelope, not net/http's
	// plain-text 404.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		WriteEnvelope(w, protocol.Errorf(protocol.CodeNotFound, "no such endpoint %s", r.URL.Path))
	})
}

// method guards a route's HTTP method with a structured 405.
func (st *serverState) method(want string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != want {
			w.Header().Set("Allow", want)
			WriteEnvelope(w, protocol.Errorf(protocol.CodeMethodNotAllowed,
				"method %s not allowed on %s (use %s)", r.Method, r.URL.Path, want))
			return
		}
		h(w, r)
	}
}

// DecodeBody decodes a JSON request body strictly: unknown fields and
// trailing data after the first value are protocol errors. An empty
// body decodes to the zero request, so `curl -X POST /v1/match` runs
// the default pt-en pair. Exported for the fleet router, which decodes
// the same request shapes before routing them.
func DecodeBody(r *http.Request, v any) *protocol.Error {
	if r.Body == nil {
		return nil
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		var extra json.RawMessage
		if trailErr := dec.Decode(&extra); !errors.Is(trailErr, io.EOF) {
			return bodyError(trailErr, "request body must contain exactly one JSON object")
		}
		return nil
	}
	if errors.Is(err, io.EOF) {
		return nil
	}
	return bodyError(err, "")
}

// bodyError classifies a body read/decode failure; override replaces
// the decoder's message when set.
func bodyError(err error, override string) *protocol.Error {
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		return protocol.Errorf(protocol.CodePayloadTooLarge, "request body exceeds %d bytes", maxErr.Limit)
	}
	if override != "" {
		return protocol.Errorf(protocol.CodeInvalidArgument, "invalid request body: %s", override)
	}
	return protocol.Errorf(protocol.CodeInvalidArgument, "invalid request body: %v", err)
}

func (st *serverState) handleMatch(w http.ResponseWriter, r *http.Request) {
	var req protocol.MatchRequest
	if e := DecodeBody(r, &req); e != nil {
		WriteEnvelope(w, e)
		return
	}
	if e := st.gatePair(req); e != nil {
		WriteEnvelope(w, e)
		return
	}
	resp, err := st.s.ServeMatch(r.Context(), req)
	if err != nil {
		WriteEnvelope(w, protocol.FromErr(err))
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (st *serverState) handleMatchAll(w http.ResponseWriter, r *http.Request) {
	var req protocol.MatchRequest
	if e := DecodeBody(r, &req); e != nil {
		WriteEnvelope(w, e)
		return
	}
	if !req.All && (req.Pair != "" || req.Type != "") {
		WriteEnvelope(w, protocol.Errorf(protocol.CodeInvalidArgument,
			"pair-scoped request must be sent to /v1/match"))
		return
	}
	req.All = true
	if e := st.gatePair(req); e != nil {
		WriteEnvelope(w, e)
		return
	}
	resp, err := st.s.ServeMatchAll(r.Context(), req)
	if err != nil {
		WriteEnvelope(w, protocol.FromErr(err))
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (st *serverState) handleStream(w http.ResponseWriter, r *http.Request) {
	var req protocol.MatchRequest
	if e := DecodeBody(r, &req); e != nil {
		WriteEnvelope(w, e)
		return
	}
	// The relay's cancel is the slow-reader guard's lever: a write
	// deadline miss cancels the in-flight matching work, and the
	// session-side buffers (sized for the whole run) are dropped with the
	// channel instead of pinning until the client drains them.
	if e := st.gatePair(req); e != nil {
		WriteEnvelope(w, e)
		return
	}
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	lines, err := st.s.ServeStream(ctx, req)
	if err != nil {
		WriteEnvelope(w, protocol.FromErr(err))
		return
	}
	WriteNDJSONStream(w, st.cfg.StreamWriteTimeout, cancel, lines)
}

// WriteNDJSONStream writes a line stream as NDJSON with the
// slow-reader guard applied: each line's write runs under a fresh
// deadline of writeTimeout (≤ 0 disables the guard) — armed immediately
// before the write, so slow matching between lines never counts against
// it — and a failed write cancels the producer and drains it so no
// goroutine or buffer outlives the dead connection. Writers without
// deadline support (httptest recorders) just skip the guard. Exported
// for the fleet router, whose streamed endpoints relay shard lines
// through the same guard.
func WriteNDJSONStream(w http.ResponseWriter, writeTimeout time.Duration, cancel context.CancelFunc, lines <-chan protocol.StreamLine) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	for line := range lines {
		if writeTimeout > 0 {
			_ = rc.SetWriteDeadline(time.Now().Add(writeTimeout))
		}
		if err := enc.Encode(line); err != nil {
			cancel()
			for range lines {
			}
			return
		}
		_ = rc.Flush()
	}
	// Disarm so a keep-alive connection is not poisoned by a stale
	// deadline.
	if writeTimeout > 0 {
		_ = rc.SetWriteDeadline(time.Time{})
	}
}

// gatePair enforces the shard-ownership gate on a decoded matching
// request: a fleet replica serves only the language pairs its shard
// owns, so a pair it does not own is answered with a retryable
// unavailable envelope (the router owns the shard map; a direct hit on
// the wrong replica means a stale or bypassed one), and all-pairs
// requests are rejected outright — scatter-gather is the router's job.
// Returns nil on ungated replicas and on requests that fail validation,
// so the execution path's canonical errors are untouched.
func (st *serverState) gatePair(req protocol.MatchRequest) *protocol.Error {
	if st.cfg.PairOwned == nil {
		return nil
	}
	r, err := req.Validate()
	if err != nil {
		return nil
	}
	if r.All {
		return protocol.Errorf(protocol.CodeInvalidArgument,
			"all-pairs requests are not served by shard replicas (%s); send them to the router",
			st.cfg.ShardLabel)
	}
	if !st.cfg.PairOwned(r.Pair) {
		return protocol.Errorf(protocol.CodeUnavailable,
			"pair %s is not owned by %s; consult the router's shard map", r.Pair, st.cfg.ShardLabel)
	}
	return nil
}

func (st *serverState) handleAudit(w http.ResponseWriter, r *http.Request) {
	var req protocol.AuditRequest
	if e := DecodeBody(r, &req); e != nil {
		WriteEnvelope(w, e)
		return
	}
	if e := st.gateAudit(req); e != nil {
		WriteEnvelope(w, e)
		return
	}
	resp, err := st.s.ServeAudit(r.Context(), req)
	if err != nil {
		WriteEnvelope(w, protocol.FromErr(err))
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (st *serverState) handleAuditStream(w http.ResponseWriter, r *http.Request) {
	var req protocol.AuditRequest
	if e := DecodeBody(r, &req); e != nil {
		WriteEnvelope(w, e)
		return
	}
	if e := st.gateAudit(req); e != nil {
		WriteEnvelope(w, e)
		return
	}
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	lines, err := st.s.ServeAuditStream(ctx, req)
	if err != nil {
		WriteEnvelope(w, protocol.FromErr(err))
		return
	}
	WriteNDJSONStream(w, st.cfg.StreamWriteTimeout, cancel, lines)
}

// gateAudit enforces the shard-ownership gate on audit requests: a
// fleet replica never runs the matching phase itself (its artifact
// slice covers only its owned pairs), so an audit without pre-merged
// clusters is rejected — the router scatter-gathers the match and
// forwards the clusters.
func (st *serverState) gateAudit(req protocol.AuditRequest) *protocol.Error {
	if st.cfg.PairOwned == nil || req.Clusters != nil {
		return nil
	}
	return protocol.Errorf(protocol.CodeInvalidArgument,
		"audit requests without clusters are not served by shard replicas (%s); send them to the router",
		st.cfg.ShardLabel)
}

func (st *serverState) handleCorpus(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, st.s.Stats())
}

func (st *serverState) handleInvalidate(w http.ResponseWriter, r *http.Request) {
	var req protocol.InvalidateRequest
	if e := DecodeBody(r, &req); e != nil {
		WriteEnvelope(w, e)
		return
	}
	lang, err := req.Validate()
	if err != nil {
		WriteEnvelope(w, protocol.FromErr(err))
		return
	}
	pairs, types := st.s.InvalidateDetail(lang)
	WriteJSON(w, http.StatusOK, protocol.InvalidateResponse{
		Dropped: pairs + types,
		Pairs:   pairs,
		Types:   types,
	})
}

func (st *serverState) handleDelta(w http.ResponseWriter, r *http.Request) {
	var req protocol.DeltaRequest
	if e := DecodeBody(r, &req); e != nil {
		WriteEnvelope(w, e)
		return
	}
	resp, err := st.s.ServeDelta(r.Context(), req)
	if err != nil {
		WriteEnvelope(w, protocol.FromErr(err))
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (st *serverState) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := protocol.Health{
		Status:        "ok",
		UptimeSeconds: time.Since(st.started).Seconds(),
		Cache:         st.s.CacheStats(),
	}
	if at, ok := st.s.SnapshotTime(); ok {
		h.Snapshot.Loaded = true
		h.Snapshot.CreatedAt = at.UTC().Format(time.RFC3339Nano)
		h.Snapshot.AgeSeconds = time.Since(at).Seconds()
	}
	WriteJSON(w, http.StatusOK, h)
}

func (st *serverState) handleMetrics(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, st.metrics.snapshot())
}

// WriteJSON writes v as a JSON response body. Exported for the fleet
// router, which serves the same wire shapes.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
