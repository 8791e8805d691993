package service

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/protocol"
)

// decodeEnvelope reads a structured v1 error body.
func decodeEnvelope(t *testing.T, body io.Reader) *protocol.Error {
	t.Helper()
	var env protocol.ErrorEnvelope
	if err := json.NewDecoder(body).Decode(&env); err != nil {
		t.Fatalf("decode envelope: %v", err)
	}
	if env.Error == nil {
		t.Fatal("envelope without error")
	}
	return env.Error
}

// TestConcurrencyLimiterUnderContention floods a limited stack with
// more requests than it admits: the admitted ones finish normally, the
// rest observe 429 envelopes with Retry-After, nothing deadlocks, and
// the metrics account for every request. Run under -race in CI.
func TestConcurrencyLimiterUnderContention(t *testing.T) {
	const limit = 2
	entered := make(chan struct{}, limit)
	release := make(chan struct{})
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
	})
	h, metrics := WrapMiddleware(inner, WithMaxConcurrent(limit))
	srv := httptest.NewServer(h)
	defer srv.Close()

	// Fill the limiter with exactly `limit` in-flight requests.
	type result struct {
		status     int
		retryAfter string
		code       string
	}
	results := make(chan result, limit+3)
	get := func() {
		resp, err := http.Get(srv.URL + "/v1/match")
		if err != nil {
			t.Error(err)
			results <- result{}
			return
		}
		defer resp.Body.Close()
		res := result{status: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After")}
		if resp.StatusCode != http.StatusOK {
			var env protocol.ErrorEnvelope
			if err := json.NewDecoder(resp.Body).Decode(&env); err == nil && env.Error != nil {
				res.code = env.Error.Code
			}
		}
		results <- res
	}
	var wg sync.WaitGroup
	for i := 0; i < limit; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); get() }()
	}
	for i := 0; i < limit; i++ {
		<-entered // both slots are now held
	}

	// Anything else must be shed immediately — not queued.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); get() }()
	}
	shedSeen := 0
	for i := 0; i < 3; i++ {
		res := <-results
		if res.status != http.StatusTooManyRequests {
			t.Fatalf("overflow request got status %d, want 429", res.status)
		}
		if res.code != protocol.CodeOverloaded {
			t.Errorf("shed code = %q", res.code)
		}
		if res.retryAfter == "" {
			t.Error("shed response without Retry-After")
		}
		shedSeen++
	}
	close(release)
	wg.Wait()
	for i := 0; i < limit; i++ {
		if res := <-results; res.status != http.StatusOK {
			t.Errorf("admitted request got status %d", res.status)
		}
	}

	m := metrics()
	if m.Shed != uint64(shedSeen) {
		t.Errorf("metrics shed = %d, want %d", m.Shed, shedSeen)
	}
	if m.RequestsTotal != uint64(limit+3) {
		t.Errorf("metrics requestsTotal = %d, want %d", m.RequestsTotal, limit+3)
	}
	if m.InFlight != 0 {
		t.Errorf("metrics inFlight = %d after drain", m.InFlight)
	}
	if m.ByStatus["200"] != uint64(limit) || m.ByStatus["429"] != uint64(shedSeen) {
		t.Errorf("byStatus = %v", m.ByStatus)
	}
}

// TestStreamCapSeparateFromUnary holds the only stream slot and checks
// that a second stream is shed while unary endpoints stay admitted.
func TestStreamCapSeparateFromUnary(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if streamPath(r.URL.Path) {
			entered <- struct{}{}
			<-release
		}
		w.WriteHeader(http.StatusOK)
	})
	h, _ := WrapMiddleware(inner, WithMaxConcurrent(0), WithMaxStreams(1))
	srv := httptest.NewServer(h)
	defer srv.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get(srv.URL + "/v1/stream")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered // the stream slot is held

	resp, err := http.Get(srv.URL + "/v1/stream")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("second stream got %d, want 429", resp.StatusCode)
	}
	if got := decodeEnvelope(t, resp.Body).Code; got != protocol.CodeOverloaded {
		t.Errorf("code = %s", got)
	}
	resp.Body.Close()

	// Unary traffic is not subject to the stream cap.
	unary, err := http.Get(srv.URL + "/v1/match")
	if err != nil {
		t.Fatal(err)
	}
	unary.Body.Close()
	if unary.StatusCode != http.StatusOK {
		t.Errorf("unary request got %d while stream slot held", unary.StatusCode)
	}
	close(release)
	<-done
}

// TestPanicRecovery asserts a panicking handler yields the structured
// 500 envelope (request ID attached) and the panic counter moves.
func TestPanicRecovery(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})
	var buf strings.Builder
	h, metrics := WrapMiddleware(inner, WithAccessLog(log.New(&buf, "", 0)))
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/match")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	e := decodeEnvelope(t, resp.Body)
	if e.Code != protocol.CodeInternal || e.Retryable {
		t.Errorf("envelope = %+v", e)
	}
	if e.Details["requestId"] == "" {
		t.Error("panic envelope without requestId detail")
	}
	if m := metrics(); m.Panics != 1 {
		t.Errorf("panics counter = %d", m.Panics)
	}
	if !strings.Contains(buf.String(), "kaboom") {
		t.Error("panic not logged")
	}
}

// TestRequestIDPropagation checks minted and echoed request IDs reach
// the response headers and the handler's context.
func TestRequestIDPropagation(t *testing.T) {
	var seen string
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = RequestID(r.Context())
		w.WriteHeader(http.StatusNoContent)
	})
	h, _ := WrapMiddleware(inner)
	srv := httptest.NewServer(h)
	defer srv.Close()

	// Minted: deterministic counter per stack.
	resp, err := http.Get(srv.URL + "/x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "req-1" {
		t.Errorf("minted id = %q, want req-1", got)
	}
	if seen != "req-1" {
		t.Errorf("context id = %q", seen)
	}

	// Echoed: a sane client-supplied ID is preserved end to end.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/x", nil)
	req.Header.Set("X-Request-Id", "client-abc-123")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-Id"); got != "client-abc-123" {
		t.Errorf("echoed id = %q", got)
	}
	if seen != "client-abc-123" {
		t.Errorf("context id = %q", seen)
	}

	// Garbage (control characters, oversized) is replaced, not echoed.
	req3, _ := http.NewRequest(http.MethodGet, srv.URL+"/x", nil)
	req3.Header.Set("X-Request-Id", strings.Repeat("x", 65))
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if got := resp3.Header.Get("X-Request-Id"); got != "req-2" {
		t.Errorf("oversized id echoed as %q", got)
	}
}

// TestRequestTimeoutEnvelope drives a real session handler with a
// nanosecond budget: the context expires before matching starts and the
// deadline_exceeded envelope (504, retryable) comes back.
func TestRequestTimeoutEnvelope(t *testing.T) {
	srv := httptest.NewServer(NewHandler(New(smallCorpus(t)), WithRequestTimeout(time.Nanosecond)))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/match", "application/json", strings.NewReader(`{"pair":"pt-en"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	e := decodeEnvelope(t, resp.Body)
	if e.Code != protocol.CodeDeadlineExceeded || !e.Retryable {
		t.Errorf("envelope = %+v", e)
	}
	// Control-plane probes are exempt from the timeout.
	health, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Errorf("healthz under timeout config: %d", health.StatusCode)
	}
}

// TestBodySizeLimit sends an oversized request body and expects the
// payload_too_large envelope.
func TestBodySizeLimit(t *testing.T) {
	srv := httptest.NewServer(NewHandler(New(smallCorpus(t)), WithMaxBodyBytes(64)))
	defer srv.Close()

	big := fmt.Sprintf(`{"pair":"pt-en","type":%q}`, strings.Repeat("x", 256))
	resp, err := http.Post(srv.URL+"/v1/match", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	if got := decodeEnvelope(t, resp.Body).Code; got != protocol.CodePayloadTooLarge {
		t.Errorf("code = %s", got)
	}
	// A small body on the same server still works.
	ok, err := http.Post(srv.URL+"/v1/match", "application/json", strings.NewReader(`{"pair":"pt-en"}`))
	if err != nil {
		t.Fatal(err)
	}
	ok.Body.Close()
	if ok.StatusCode != http.StatusOK {
		t.Errorf("small body rejected: %d", ok.StatusCode)
	}
}

// failAfterWriter fails every Write after the first n, standing in for
// a connection whose write deadline fired mid-stream.
type failAfterWriter struct {
	header http.Header
	writes int
	limit  int
}

func (w *failAfterWriter) Header() http.Header { return w.header }
func (w *failAfterWriter) WriteHeader(int)     {}
func (w *failAfterWriter) Write(b []byte) (int, error) {
	w.writes++
	if w.writes > w.limit {
		return 0, fmt.Errorf("write deadline exceeded")
	}
	return len(b), nil
}

// TestStreamAbortsOnWriteFailure drives the NDJSON handler against a
// writer that dies mid-stream: the handler must cancel the producer,
// drain it and return instead of spinning on a dead connection — the
// slow-reader guard's abort path.
func TestStreamAbortsOnWriteFailure(t *testing.T) {
	h := NewHandler(New(smallCorpus(t)))
	req := httptest.NewRequest(http.MethodPost, "/v1/stream", strings.NewReader(`{"pair":"pt-en"}`))
	w := &failAfterWriter{header: make(http.Header), limit: 1}
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(w, req)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("stream handler did not return after write failure")
	}
	if w.writes < 2 {
		t.Fatalf("handler wrote %d times; the failure path never ran", w.writes)
	}
}

// TestBodyRejectsTrailingData: the strict decoder must refuse a body
// with anything after the first JSON value.
func TestBodyRejectsTrailingData(t *testing.T) {
	srv := httptest.NewServer(NewHandler(New(smallCorpus(t))))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/match", "application/json",
		strings.NewReader(`{"pair":"pt-en"}{"pair":"bogus"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	e := decodeEnvelope(t, resp.Body)
	if e.Code != protocol.CodeInvalidArgument || !strings.Contains(e.Message, "exactly one JSON object") {
		t.Errorf("envelope = %+v", e)
	}
}

// TestPanicAfterWriteAbortsConnection: a panic once the response has
// started must kill the connection rather than let net/http finalize a
// truncated body the client would mistake for a complete result.
func TestPanicAfterWriteAborts(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte(`{"partial":`))
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic("mid-stream")
	})
	h, metrics := WrapMiddleware(inner)
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/stream")
	if err == nil {
		_, readErr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if readErr == nil {
			t.Fatal("truncated response read cleanly; connection was not aborted")
		}
	}
	if m := metrics(); m.Panics != 1 {
		t.Errorf("panics counter = %d", m.Panics)
	}
}

// TestRouteLabelBounded: junk paths, retired pre-v1 routes included,
// share the "other" bucket instead of poisoning the per-route table,
// while every registered route, delta included, keeps its own label.
func TestRouteLabelBounded(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusNotFound) })
	h, metrics := WrapMiddleware(inner)
	srv := httptest.NewServer(h)
	defer srv.Close()

	for i := 0; i < 100; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/spray/%d", srv.URL, i))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(srv.URL + "/match/filme")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// Delta traffic is a registered route and gets its own label.
	resp, err = http.Post(srv.URL+"/v1/corpus/delta", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	m := metrics()
	if m.ByRoute["other"] != 101 || m.ByRoute["POST /v1/corpus/delta"] != 1 || len(m.ByRoute) != 2 {
		t.Errorf("routes = %v, want other=101 and POST /v1/corpus/delta=1 only", m.ByRoute)
	}
}
