package service

import (
	"context"
	"encoding/json"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/protocol"
	"repro/internal/wiki"
)

// The composable middleware stack wrapping the wikimatchd mux. Order
// (outermost first): request ID → access log → metrics → panic
// recovery → concurrency limiter → per-request timeout → body limit.
// The stack is exposed standalone as WrapMiddleware so its behaviour is
// testable around arbitrary handlers, and NewHandler applies it around
// the protocol routes.

// HandlerConfig tunes the HTTP stack. The zero value is usable;
// DefaultHandlerConfig documents the defaults NewHandler starts from.
type HandlerConfig struct {
	// MaxConcurrent bounds concurrently served requests; excess load is
	// shed with 429 + Retry-After. 0 means unlimited. Health and metrics
	// probes are exempt.
	MaxConcurrent int
	// MaxStreams separately bounds concurrently served NDJSON streams —
	// each stream can pin buffered results for its whole run, so streams
	// get a tighter cap than unary requests. 0 means unlimited.
	MaxStreams int
	// RequestTimeout bounds each non-streaming request's context.
	// 0 means no timeout. Streaming endpoints are exempt (a long batch
	// stream is healthy, not stuck).
	RequestTimeout time.Duration
	// MaxBodyBytes caps request body size; larger bodies get a 413
	// envelope. 0 means the 1 MiB default.
	MaxBodyBytes int64
	// StreamWriteTimeout bounds each NDJSON line write, so a stalled
	// reader frees the stream's resources instead of pinning them. 0
	// means the 1 minute default; negative disables the deadline.
	StreamWriteTimeout time.Duration
	// Logger receives one access-log line per request when non-nil.
	Logger *log.Logger
	// PairOwned, when non-nil, marks this replica as one shard of a
	// fleet: matching requests for pairs it reports false for are
	// rejected with a retryable unavailable envelope instead of being
	// computed cold, and all-pairs requests are refused (the router
	// scatter-gathers them). Nil — the default — serves every pair.
	PairOwned func(wiki.LanguagePair) bool
	// ShardLabel names this replica in shard-gate error messages,
	// e.g. "shard 1/3". Only used when PairOwned is set.
	ShardLabel string
}

// DefaultHandlerConfig is the production default stack configuration.
func DefaultHandlerConfig() HandlerConfig {
	return HandlerConfig{
		MaxConcurrent:      64,
		MaxStreams:         16,
		RequestTimeout:     5 * time.Minute,
		MaxBodyBytes:       1 << 20,
		StreamWriteTimeout: time.Minute,
	}
}

func (c HandlerConfig) withDefaults() HandlerConfig {
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.StreamWriteTimeout == 0 {
		c.StreamWriteTimeout = time.Minute
	}
	return c
}

// HandlerOption adjusts the HTTP stack NewHandler builds.
type HandlerOption func(*HandlerConfig)

// WithMaxConcurrent bounds concurrently served requests (0 = unlimited).
func WithMaxConcurrent(n int) HandlerOption {
	return func(c *HandlerConfig) { c.MaxConcurrent = n }
}

// WithMaxStreams bounds concurrently served NDJSON streams (0 = unlimited).
func WithMaxStreams(n int) HandlerOption {
	return func(c *HandlerConfig) { c.MaxStreams = n }
}

// WithRequestTimeout bounds each non-streaming request (0 = none).
func WithRequestTimeout(d time.Duration) HandlerOption {
	return func(c *HandlerConfig) { c.RequestTimeout = d }
}

// WithMaxBodyBytes caps request body size.
func WithMaxBodyBytes(n int64) HandlerOption {
	return func(c *HandlerConfig) { c.MaxBodyBytes = n }
}

// WithStreamWriteTimeout bounds each NDJSON line write (negative =
// no deadline).
func WithStreamWriteTimeout(d time.Duration) HandlerOption {
	return func(c *HandlerConfig) { c.StreamWriteTimeout = d }
}

// WithAccessLog enables per-request access logging.
func WithAccessLog(l *log.Logger) HandlerOption {
	return func(c *HandlerConfig) { c.Logger = l }
}

// WithShardGate marks this replica as one shard of a fleet: matching
// requests for pairs owned reports false for are rejected with a
// retryable unavailable envelope, and all-pairs requests are refused —
// the router owns the scatter-gather. label names the replica in the
// rejection messages (e.g. "shard 1/3").
func WithShardGate(label string, owned func(wiki.LanguagePair) bool) HandlerOption {
	return func(c *HandlerConfig) {
		c.ShardLabel = label
		c.PairOwned = owned
	}
}

// RequestID returns the request's ID ("" outside the middleware stack).
// The ID travels in the context under a protocol-package key so the
// client SDK can forward it as the outbound X-Request-Id header — one
// user request stays traceable through a router to the shard that
// served it.
func RequestID(ctx context.Context) string {
	return protocol.RequestIDFromContext(ctx)
}

// serverMetrics aggregates the stack's counters. Totals and gauges are
// atomics; the keyed breakdowns take a mutex on the (cheap) completion
// path.
type serverMetrics struct {
	requestsTotal atomic.Uint64
	inFlight      atomic.Int64
	shed          atomic.Uint64
	panics        atomic.Uint64

	mu       sync.Mutex
	byStatus map[int]uint64
	byRoute  map[string]uint64
}

// maxRoutes caps the per-route breakdown's cardinality; past it, new
// paths land in the "other" bucket so an URL-spraying client cannot
// grow the map unboundedly.
const maxRoutes = 64

func newServerMetrics() *serverMetrics {
	return &serverMetrics{byStatus: make(map[int]uint64), byRoute: make(map[string]uint64)}
}

func (m *serverMetrics) record(route string, status int) {
	if status == 0 {
		status = http.StatusOK // handler wrote nothing: net/http sends 200
	}
	m.requestsTotal.Add(1)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.byStatus[status]++
	if _, ok := m.byRoute[route]; !ok && len(m.byRoute) >= maxRoutes {
		route = "other"
	}
	m.byRoute[route]++
}

func (m *serverMetrics) snapshot() protocol.Metrics {
	out := protocol.Metrics{
		RequestsTotal: m.requestsTotal.Load(),
		InFlight:      m.inFlight.Load(),
		Shed:          m.shed.Load(),
		Panics:        m.panics.Load(),
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.byStatus) > 0 {
		out.ByStatus = make(map[string]uint64, len(m.byStatus))
		for status, n := range m.byStatus {
			out.ByStatus[strconv.Itoa(status)] = n
		}
	}
	if len(m.byRoute) > 0 {
		out.ByRoute = make(map[string]uint64, len(m.byRoute))
		for route, n := range m.byRoute {
			out.ByRoute[route] = n
		}
	}
	return out
}

// routeLabel normalizes a request to a bounded metrics key: paths
// outside the registered route set share an "other" bucket, so an
// URL-spraying client cannot poison the per-route table. The maxRoutes
// cap remains as a backstop. The set mirrors registerV1.
func routeLabel(r *http.Request) string {
	switch r.URL.Path {
	case "/v1/match", "/v1/matchall", "/v1/stream", "/v1/audit", "/v1/audit/stream",
		"/v1/corpus", "/v1/corpus/delta", "/v1/invalidate", "/v1/healthz", "/v1/metrics":
		return r.Method + " " + r.URL.Path
	}
	return "other"
}

// statusWriter records the response status for logging and metrics
// while forwarding Flush and per-response controls (Unwrap) to the
// underlying writer — NDJSON streaming must keep working through it.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(status int) {
	if !w.wrote {
		w.status, w.wrote = status, true
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.status, w.wrote = http.StatusOK, true
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.NewResponseController reach the real connection for
// SetWriteDeadline.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// controlPlanePath reports probe endpoints the limiter must never shed:
// an overloaded server still answers health checks.
func controlPlanePath(path string) bool {
	switch path {
	case "/v1/healthz", "/v1/metrics":
		return true
	}
	return false
}

// streamPath reports NDJSON endpoints, which are exempt from the
// per-request timeout and subject to the stream cap instead.
func streamPath(path string) bool {
	switch path {
	case "/v1/stream", "/v1/audit/stream":
		return true
	}
	return false
}

// WrapMiddleware wraps any handler in the v1 middleware stack and
// returns it together with a snapshot function over the stack's live
// counters (the same data /v1/metrics serves when NewHandler builds
// the stack).
func WrapMiddleware(next http.Handler, opts ...HandlerOption) (http.Handler, func() protocol.Metrics) {
	cfg := DefaultHandlerConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	h, metrics := wrapMiddleware(next, cfg.withDefaults())
	return h, metrics.snapshot
}

func wrapMiddleware(next http.Handler, cfg HandlerConfig) (http.Handler, *serverMetrics) {
	metrics := newServerMetrics()
	var reqCounter atomic.Uint64

	var sem, streamSem chan struct{}
	if cfg.MaxConcurrent > 0 {
		sem = make(chan struct{}, cfg.MaxConcurrent)
	}
	if cfg.MaxStreams > 0 {
		streamSem = make(chan struct{}, cfg.MaxStreams)
	}

	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Request ID: echo a sane client-supplied one, mint otherwise.
		id := r.Header.Get("X-Request-Id")
		if !validRequestID(id) {
			id = "req-" + strconv.FormatUint(reqCounter.Add(1), 10)
		}
		w.Header().Set("X-Request-Id", id)
		ctx := protocol.ContextWithRequestID(r.Context(), id)
		r = r.WithContext(ctx)

		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		metrics.inFlight.Add(1)
		defer func() {
			rec := recover()
			midResponse := rec != nil && sw.wrote
			metrics.inFlight.Add(-1)
			// Panic recovery: answer with a structured 500 when the
			// response has not started, and always keep counting.
			if rec != nil {
				metrics.panics.Add(1)
				if cfg.Logger != nil {
					cfg.Logger.Printf("panic serving %s %s (request %s): %v\n%s",
						r.Method, r.URL.Path, id, rec, debug.Stack())
				}
				if !midResponse {
					WriteEnvelope(sw, protocol.Errorf(protocol.CodeInternal, "internal server error").WithDetail("requestId", id))
				}
			}
			metrics.record(routeLabel(r), sw.status)
			if cfg.Logger != nil {
				cfg.Logger.Printf("%s %s %d %s id=%s", r.Method, r.URL.RequestURI(), sw.status,
					time.Since(start).Round(time.Microsecond), id)
			}
			if midResponse {
				// The panic hit mid-response: the body is truncated, and
				// returning normally would let net/http finalize it so the
				// client mistakes it for complete. Abort the connection
				// instead, the way the stdlib's own panic path does.
				panic(http.ErrAbortHandler)
			}
		}()

		if !controlPlanePath(r.URL.Path) {
			// Load shedding: non-blocking admission, 429 + Retry-After on a
			// full server. Streams additionally take a stream slot.
			if sem != nil {
				select {
				case sem <- struct{}{}:
					defer func() { <-sem }()
				default:
					shed(sw, metrics)
					return
				}
			}
			if streamSem != nil && streamPath(r.URL.Path) {
				select {
				case streamSem <- struct{}{}:
					defer func() { <-streamSem }()
				default:
					shed(sw, metrics)
					return
				}
			}
			if cfg.RequestTimeout > 0 && !streamPath(r.URL.Path) {
				tctx, cancel := context.WithTimeout(r.Context(), cfg.RequestTimeout)
				defer cancel()
				r = r.WithContext(tctx)
			}
		}
		if r.Body != nil {
			r.Body = http.MaxBytesReader(sw, r.Body, cfg.MaxBodyBytes)
		}
		next.ServeHTTP(sw, r)
	})
	return h, metrics
}

// shed answers a request the limiter could not admit.
func shed(w http.ResponseWriter, m *serverMetrics) {
	m.shed.Add(1)
	w.Header().Set("Retry-After", "1")
	WriteEnvelope(w, protocol.Errorf(protocol.CodeOverloaded, "server is at its concurrency limit; retry shortly"))
}

// validRequestID accepts short printable ASCII tokens, rejecting
// anything that could corrupt logs or headers. The check itself lives
// in the protocol package, shared with the client SDK's header
// forwarding.
func validRequestID(id string) bool { return protocol.ValidRequestID(id) }

// WriteEnvelope writes a structured protocol error with its transport
// status.
func WriteEnvelope(w http.ResponseWriter, e *protocol.Error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.HTTPStatus())
	_ = json.NewEncoder(w).Encode(protocol.ErrorEnvelope{Error: e})
}
