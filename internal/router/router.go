package router

import (
	"context"
	"errors"
	"log"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/multi"
	"repro/internal/protocol"
	"repro/internal/service"
	"repro/internal/wiki"
)

// shard is one replica of the fleet: its index in the shard map, the
// normalized base URL, and the SDK client the router reaches it with.
type shard struct {
	index int
	addr  string
	c     *client.Client
}

// Router coordinates a wikimatchd fleet behind the single-binary /v1
// surface. Build it with New, mount Handler, and Close it on shutdown
// to stop the health poller.
type Router struct {
	shards []shard

	clientOpts     []client.Option
	handlerOpts    []service.HandlerOption
	healthInterval time.Duration
	probeTimeout   time.Duration
	streamTimeout  time.Duration
	logger         *log.Logger

	started time.Time
	metrics func() protocol.Metrics

	// langMu guards the cached fleet language set, discovered from a
	// shard's corpus stats and dropped whenever a delta lands (the
	// corpus may have grown a language).
	langMu sync.Mutex
	langs  []wiki.Language

	// healthMu guards the poller's last fleet-health observation.
	healthMu   sync.Mutex
	lastHealth *protocol.FleetHealth

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// Option adjusts a Router.
type Option func(*Router)

// WithClientOptions passes SDK options (retries, hedging, HTTP client)
// to every per-shard client.
func WithClientOptions(opts ...client.Option) Option {
	return func(rt *Router) { rt.clientOpts = append(rt.clientOpts, opts...) }
}

// WithHandlerOptions passes middleware-stack options to the router's
// own HTTP surface (Handler wraps the same stack a replica runs).
func WithHandlerOptions(opts ...service.HandlerOption) Option {
	return func(rt *Router) { rt.handlerOpts = append(rt.handlerOpts, opts...) }
}

// WithHealthInterval sets the background health-poll period. 0 keeps
// the 15s default; negative disables the poller (health is then only
// probed live, per /v1/healthz request).
func WithHealthInterval(d time.Duration) Option {
	return func(rt *Router) { rt.healthInterval = d }
}

// WithProbeTimeout bounds each per-shard health probe (default 2s).
func WithProbeTimeout(d time.Duration) Option {
	return func(rt *Router) { rt.probeTimeout = d }
}

// WithStreamWriteTimeout bounds each relayed NDJSON line write
// (default 1 minute; negative disables the deadline).
func WithStreamWriteTimeout(d time.Duration) Option {
	return func(rt *Router) { rt.streamTimeout = d }
}

// WithLogger receives fleet-health transitions and routing errors.
func WithLogger(l *log.Logger) Option {
	return func(rt *Router) { rt.logger = l }
}

// New builds a router over the shard addresses, in shard-map order:
// addrs[i] must be the replica started with -shard-index i (and
// -shard-count len(addrs)), or the routed slices will not line up with
// the warm-loaded ones. Addresses without a scheme get "http://".
func New(addrs []string, opts ...Option) (*Router, error) {
	if len(addrs) == 0 {
		return nil, errors.New("router: no shard addresses")
	}
	rt := &Router{
		healthInterval: 15 * time.Second,
		probeTimeout:   2 * time.Second,
		streamTimeout:  time.Minute,
		started:        time.Now(),
		stop:           make(chan struct{}),
		done:           make(chan struct{}),
	}
	for _, opt := range opts {
		opt(rt)
	}
	for i, addr := range addrs {
		base := addr
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		c, err := client.New(base, rt.clientOpts...)
		if err != nil {
			return nil, err
		}
		rt.shards = append(rt.shards, shard{index: i, addr: base, c: c})
	}
	if rt.healthInterval > 0 {
		go rt.poll()
	} else {
		close(rt.done)
	}
	return rt, nil
}

// Close stops the background health poller. The Handler keeps serving;
// Close only releases the goroutine.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	<-rt.done
}

// Shards reports the fleet size.
func (rt *Router) Shards() int { return len(rt.shards) }

// owner returns the shard the map assigns a pair to.
func (rt *Router) owner(pair wiki.LanguagePair) *shard {
	return &rt.shards[ShardFor(pair, len(rt.shards))]
}

// Handler mounts the fleet /v1 surface — the same routes a replica
// serves, wrapped in the same middleware stack (request IDs, metrics,
// shedding), so a client cannot tell a router from a single binary
// except by the fleet-shaped healthz/metrics/delta bodies.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/match", method(http.MethodPost, rt.handleMatch))
	mux.HandleFunc("/v1/matchall", method(http.MethodPost, rt.handleMatchAll))
	mux.HandleFunc("/v1/stream", method(http.MethodPost, rt.handleStream))
	mux.HandleFunc("/v1/audit", method(http.MethodPost, rt.handleAudit))
	mux.HandleFunc("/v1/audit/stream", method(http.MethodPost, rt.handleAuditStream))
	mux.HandleFunc("/v1/corpus", method(http.MethodGet, rt.handleCorpus))
	mux.HandleFunc("/v1/corpus/delta", method(http.MethodPost, rt.handleDelta))
	mux.HandleFunc("/v1/invalidate", method(http.MethodPost, rt.handleInvalidate))
	mux.HandleFunc("/v1/healthz", method(http.MethodGet, rt.handleHealthz))
	mux.HandleFunc("/v1/metrics", method(http.MethodGet, rt.handleMetrics))
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		service.WriteEnvelope(w, protocol.Errorf(protocol.CodeNotFound, "no such endpoint %s", r.URL.Path))
	})
	h, metrics := service.WrapMiddleware(mux, rt.handlerOpts...)
	rt.metrics = metrics
	return h
}

// method guards a route's HTTP method with the structured 405.
func method(want string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != want {
			w.Header().Set("Allow", want)
			service.WriteEnvelope(w, protocol.Errorf(protocol.CodeMethodNotAllowed,
				"method %s not allowed on %s (use %s)", r.Method, r.URL.Path, want))
			return
		}
		h(w, r)
	}
}

// shardErr classifies a per-shard call failure: a structured protocol
// error from the shard passes through untouched (the shard's envelope
// is already canonical), anything else — connection refused, timeouts,
// malformed bodies — becomes a retryable unavailable envelope naming
// the shard, so callers see where the fleet is broken.
func (rt *Router) shardErr(sh *shard, err error) *protocol.Error {
	var pe *protocol.Error
	if errors.As(err, &pe) {
		return pe
	}
	if rt.logger != nil {
		rt.logger.Printf("shard %d (%s): %v", sh.index, sh.addr, err)
	}
	return protocol.Errorf(protocol.CodeUnavailable,
		"shard %d (%s) unreachable: %v", sh.index, sh.addr, err)
}

func (rt *Router) handleMatch(w http.ResponseWriter, req *http.Request) {
	var mreq protocol.MatchRequest
	if e := service.DecodeBody(req, &mreq); e != nil {
		service.WriteEnvelope(w, e)
		return
	}
	r, err := mreq.Validate()
	if err != nil {
		service.WriteEnvelope(w, protocol.FromErr(err))
		return
	}
	if r.All {
		service.WriteEnvelope(w, protocol.Errorf(protocol.CodeInvalidArgument,
			"all-pairs request must be sent to /v1/matchall"))
		return
	}
	sh := rt.owner(r.Pair)
	resp, err := sh.c.Match(req.Context(), mreq)
	if err != nil {
		service.WriteEnvelope(w, rt.shardErr(sh, err))
		return
	}
	service.WriteJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleMatchAll(w http.ResponseWriter, req *http.Request) {
	var mreq protocol.MatchRequest
	if e := service.DecodeBody(req, &mreq); e != nil {
		service.WriteEnvelope(w, e)
		return
	}
	if !mreq.All && (mreq.Pair != "" || mreq.Type != "") {
		service.WriteEnvelope(w, protocol.Errorf(protocol.CodeInvalidArgument,
			"pair-scoped request must be sent to /v1/match"))
		return
	}
	mreq.All = true
	r, err := mreq.Validate()
	if err != nil {
		service.WriteEnvelope(w, protocol.FromErr(err))
		return
	}
	start := time.Now()
	final, fm, e := rt.scatterGather(req.Context(), mreq, r)
	if e != nil {
		service.WriteEnvelope(w, e)
		return
	}
	resp := service.MatchAllDTO(final, msSince(start), fm.cacheTotals())
	service.WriteJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleStream(w http.ResponseWriter, req *http.Request) {
	var mreq protocol.MatchRequest
	if e := service.DecodeBody(req, &mreq); e != nil {
		service.WriteEnvelope(w, e)
		return
	}
	r, err := mreq.Validate()
	if err != nil {
		service.WriteEnvelope(w, protocol.FromErr(err))
		return
	}
	if r.Type != "" {
		service.WriteEnvelope(w, protocol.Errorf(protocol.CodeInvalidArgument,
			"single-type requests cannot stream; use /v1/match"))
		return
	}
	ctx, cancel := context.WithCancel(req.Context())
	defer cancel()
	if r.All {
		// Scatter-gathered batch with live progress: the same scheduler
		// and relay as /v1/matchall, line by line.
		langs, e := rt.fleetLanguages(ctx)
		if e != nil {
			service.WriteEnvelope(w, e)
			return
		}
		plan, err := multi.NewPlan(langs, r.Multi.Mode, r.Multi.Hub)
		if err != nil {
			service.WriteEnvelope(w, protocol.FromErr(err))
			return
		}
		fm := rt.fleetMatcher(mreq)
		updates := multi.StreamPlan(ctx, fm, plan, rt.batchWorkers(r, plan))
		lines := service.RelayAllStream(updates, fm.cacheTotals)
		service.WriteNDJSONStream(w, rt.streamTimeout, cancel, lines)
		return
	}
	// Pair-scoped: relay the owning shard's stream verbatim.
	sh := rt.owner(r.Pair)
	st, err := sh.c.Stream(ctx, mreq)
	if err != nil {
		service.WriteEnvelope(w, rt.shardErr(sh, err))
		return
	}
	lines := make(chan protocol.StreamLine, 16)
	go func() {
		defer close(lines)
		defer st.Close()
		for st.Next() {
			select {
			case lines <- st.Line():
			case <-ctx.Done():
				return
			}
		}
		if err := st.Err(); err != nil {
			select {
			case lines <- protocol.StreamLine{Error: rt.shardErr(sh, err)}:
			case <-ctx.Done():
			}
		}
	}()
	service.WriteNDJSONStream(w, rt.streamTimeout, cancel, lines)
}

// scatterGather runs one all-pairs batch across the fleet: the plan is
// resolved router-side from the fleet's language set, every planned
// pair is routed to its owning shard concurrently, and the wire
// results are reconstructed and merged through the same cluster
// builder a single binary runs. Per-pair shard failures land in their
// outcomes without aborting the batch, exactly like a local failure.
func (rt *Router) scatterGather(ctx context.Context, req protocol.MatchRequest, r protocol.Resolved) (*multi.BatchResult, *fleetMatcher, *protocol.Error) {
	langs, e := rt.fleetLanguages(ctx)
	if e != nil {
		return nil, nil, e
	}
	plan, err := multi.NewPlan(langs, r.Multi.Mode, r.Multi.Hub)
	if err != nil {
		return nil, nil, protocol.FromErr(err)
	}
	fm := rt.fleetMatcher(req)
	updates := multi.StreamPlan(ctx, fm, plan, rt.batchWorkers(r, plan))
	var final *multi.BatchResult
	for u := range updates {
		if u.Final != nil {
			final = u.Final
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, protocol.FromErr(err)
	}
	return final, fm, nil
}

// batchWorkers picks the scatter-gather concurrency: an explicit
// workers request is honored; the default is full fan-out (one worker
// per planned pair), because router-side pair work is network-bound
// waiting, not CPU — the shards bound their own compute.
func (rt *Router) batchWorkers(r protocol.Resolved, plan multi.Plan) int {
	if r.Multi.Workers > 0 {
		return r.Multi.Workers
	}
	return len(plan.Pairs)
}

// fleetMatcher adapts the fleet to multi.PairMatcher: each pair is one
// /v1/match against its owning shard, reconstructed into the core
// result the cluster builder consumes. It also collects each shard's
// latest cache-stats snapshot, so the merged response can report fleet
// cache totals without extra round trips.
type fleetMatcher struct {
	rt   *Router
	base protocol.MatchRequest

	mu    sync.Mutex
	cache map[int]protocol.CacheStats
}

func (rt *Router) fleetMatcher(req protocol.MatchRequest) *fleetMatcher {
	// Only the threshold overrides survive into the per-pair requests;
	// batch fields (all/mode/hub/workers) stay router-side.
	return &fleetMatcher{
		rt:    rt,
		base:  protocol.MatchRequest{TSim: req.TSim, TLSI: req.TLSI, TEg: req.TEg},
		cache: make(map[int]protocol.CacheStats),
	}
}

// Match implements multi.PairMatcher over the fleet.
func (f *fleetMatcher) Match(ctx context.Context, pair wiki.LanguagePair) (*core.Result, error) {
	req := f.base
	req.Pair = pair.String()
	sh := f.rt.owner(pair)
	resp, err := sh.c.Match(ctx, req)
	if err != nil {
		return nil, f.rt.shardErr(sh, err)
	}
	f.mu.Lock()
	f.cache[sh.index] = resp.Cache
	f.mu.Unlock()
	return resp.Result()
}

// cacheTotals sums the latest cache snapshot seen from each shard
// during the batch — the fleet-wide equivalent of a session's
// CacheStats.
func (f *fleetMatcher) cacheTotals() protocol.CacheStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out protocol.CacheStats
	for _, cs := range f.cache {
		out.PairEntries += cs.PairEntries
		out.TypeEntries += cs.TypeEntries
		out.Hits += cs.Hits
		out.Misses += cs.Misses
		out.Failures += cs.Failures
		out.RestoredPairs += cs.RestoredPairs
		out.RestoredTypes += cs.RestoredTypes
	}
	return out
}

// fleetLanguages discovers (and caches) the corpus language set from
// the first shard that answers its stats. Every shard serves the full
// corpus — only artifacts are sharded — so any answer is
// authoritative. The cache is dropped when a delta lands.
func (rt *Router) fleetLanguages(ctx context.Context) ([]wiki.Language, *protocol.Error) {
	rt.langMu.Lock()
	cached := rt.langs
	rt.langMu.Unlock()
	if cached != nil {
		return cached, nil
	}
	var lastErr *protocol.Error
	for i := range rt.shards {
		sh := &rt.shards[i]
		stats, err := sh.c.Stats(ctx)
		if err != nil {
			lastErr = rt.shardErr(sh, err)
			continue
		}
		langs := make([]wiki.Language, 0, len(stats.Corpus.Articles))
		for lang := range stats.Corpus.Articles {
			langs = append(langs, lang)
		}
		sort.Slice(langs, func(i, j int) bool { return langs[i] < langs[j] })
		rt.langMu.Lock()
		rt.langs = langs
		rt.langMu.Unlock()
		return langs, nil
	}
	if lastErr == nil {
		lastErr = protocol.Errorf(protocol.CodeUnavailable, "no shard answered corpus stats")
	}
	return nil, lastErr
}

// invalidateLanguages drops the cached language set after a corpus
// mutation.
func (rt *Router) invalidateLanguages() {
	rt.langMu.Lock()
	rt.langs = nil
	rt.langMu.Unlock()
}

func (rt *Router) handleCorpus(w http.ResponseWriter, req *http.Request) {
	// Corpus and config come from the first healthy shard (identical
	// everywhere); cache stats are summed across every shard that
	// answers, since each holds a disjoint artifact slice.
	type answer struct {
		stats *protocol.StatsResponse
		err   *protocol.Error
	}
	answers := make([]answer, len(rt.shards))
	var wg sync.WaitGroup
	for i := range rt.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sh := &rt.shards[i]
			stats, err := sh.c.Stats(req.Context())
			if err != nil {
				answers[i] = answer{err: rt.shardErr(sh, err)}
				return
			}
			answers[i] = answer{stats: stats}
		}(i)
	}
	wg.Wait()
	var resp *protocol.StatsResponse
	var cache protocol.CacheStats
	var lastErr *protocol.Error
	for _, a := range answers {
		if a.err != nil {
			lastErr = a.err
			continue
		}
		if resp == nil {
			resp = a.stats
		}
		cache.PairEntries += a.stats.Cache.PairEntries
		cache.TypeEntries += a.stats.Cache.TypeEntries
		cache.Hits += a.stats.Cache.Hits
		cache.Misses += a.stats.Cache.Misses
		cache.Failures += a.stats.Cache.Failures
		cache.RestoredPairs += a.stats.Cache.RestoredPairs
		cache.RestoredTypes += a.stats.Cache.RestoredTypes
	}
	if resp == nil {
		service.WriteEnvelope(w, lastErr)
		return
	}
	resp.Cache = cache
	service.WriteJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleDelta(w http.ResponseWriter, req *http.Request) {
	var dreq protocol.DeltaRequest
	if e := service.DecodeBody(req, &dreq); e != nil {
		service.WriteEnvelope(w, e)
		return
	}
	// Validate router-side so a malformed delta is rejected with the
	// canonical envelope before touching any shard.
	if _, err := dreq.Validate(); err != nil {
		service.WriteEnvelope(w, protocol.FromErr(err))
		return
	}
	start := time.Now()
	shards := make([]protocol.ShardDelta, len(rt.shards))
	var wg sync.WaitGroup
	for i := range rt.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sh := &rt.shards[i]
			sd := protocol.ShardDelta{Shard: sh.index, Addr: sh.addr}
			resp, err := sh.c.Delta(req.Context(), dreq)
			if err != nil {
				sd.Error = rt.shardErr(sh, err)
			} else {
				sd.Response = resp
			}
			shards[i] = sd
		}(i)
	}
	wg.Wait()
	rt.invalidateLanguages()

	ok := 0
	fingerprint, consistent := "", true
	for _, sd := range shards {
		if sd.Error != nil {
			continue
		}
		ok++
		if fingerprint == "" {
			fingerprint = sd.Response.Fingerprint
		} else if sd.Response.Fingerprint != fingerprint {
			consistent = false
		}
	}
	status := protocol.FleetOK
	switch {
	case ok == 0:
		status = protocol.FleetDown
	case ok < len(shards):
		status = protocol.FleetDegraded
	}
	// A partial fan-out leaves the fleet's corpora diverged until the
	// failed shards take the delta: report it, loudly.
	if ok < len(shards) {
		consistent = false
	}
	service.WriteJSON(w, http.StatusOK, protocol.FleetDeltaResponse{
		Status:     status,
		Consistent: consistent && ok > 0,
		Shards:     shards,
		ElapsedMS:  msSince(start),
	})
}

func (rt *Router) handleInvalidate(w http.ResponseWriter, req *http.Request) {
	var ireq protocol.InvalidateRequest
	if e := service.DecodeBody(req, &ireq); e != nil {
		service.WriteEnvelope(w, e)
		return
	}
	if _, err := ireq.Validate(); err != nil {
		service.WriteEnvelope(w, protocol.FromErr(err))
		return
	}
	results := make([]*protocol.InvalidateResponse, len(rt.shards))
	errs := make([]*protocol.Error, len(rt.shards))
	var wg sync.WaitGroup
	for i := range rt.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sh := &rt.shards[i]
			resp, err := sh.c.Invalidate(req.Context(), ireq.Lang)
			if err != nil {
				errs[i] = rt.shardErr(sh, err)
				return
			}
			results[i] = resp
		}(i)
	}
	wg.Wait()
	var total protocol.InvalidateResponse
	for i := range rt.shards {
		if errs[i] != nil {
			// Partial invalidation is worse than none to reason about;
			// surface the failure and let the caller retry the fleet.
			service.WriteEnvelope(w, errs[i])
			return
		}
		total.Dropped += results[i].Dropped
		total.Pairs += results[i].Pairs
		total.Types += results[i].Types
	}
	service.WriteJSON(w, http.StatusOK, total)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	h := rt.probeFleet(req.Context())
	rt.storeHealth(&h)
	service.WriteJSON(w, http.StatusOK, h)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	out := protocol.FleetMetrics{Shards: make([]protocol.ShardMetrics, len(rt.shards))}
	if rt.metrics != nil {
		out.Router = rt.metrics()
	}
	var wg sync.WaitGroup
	for i := range rt.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sh := &rt.shards[i]
			sm := protocol.ShardMetrics{Shard: sh.index, Addr: sh.addr}
			m, err := sh.c.Metrics(req.Context())
			if err != nil {
				sm.Error = rt.shardErr(sh, err).Error()
			} else {
				sm.Metrics = m
			}
			out.Shards[i] = sm
		}(i)
	}
	wg.Wait()
	service.WriteJSON(w, http.StatusOK, out)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
