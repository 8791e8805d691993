package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/lsi"
	"repro/internal/protocol"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/wiki"
)

// The serving workloads, serve-warm and delta-mix, share one set-up
// and boot: the paper corpus (synth.DefaultConfig, en/pt/vi) is built
// cold, saved as a snapshot, and restored the way `wikimatchd -store`
// boots. Clients then speak /v1 over loopback HTTP to a server in the
// same process, with SDK retries off.

const (
	// warmup runs the load unmeasured first, so connections are open and
	// the heap has reached its working size.
	warmup = time.Second
	// deltaRate is delta-mix's open-loop edit rate per second: a few
	// times below what the writer sustains, so edits do not queue, and
	// high enough that a 20 s run makes more than 100 edits.
	deltaRate = 6
)

// Request-class weights. serve-warm puts 70% of its requests on full
// pt–en, the slowest class, so the median falls well inside it; the
// rest split between full vi–en and single-type requests. delta-mix's
// reader uses the same weight for pt–en and sends vi–en otherwise.
const (
	weightPtEn  = 0.70
	weightVnEn  = 0.15
	readerMixes = 1 << 16 // schedule length; the schedule repeats after it
)

// Request indices into servingSetup.reqs: the two full pairs come
// first, single-type requests after.
const (
	reqPtEn = iota
	reqVnEn
	reqFirstType
)

// servingSetup is what set-up leaves behind: the corpus, a snapshot of
// the cold-built session, every distinct request with its reference
// answer from that cold session, and delta-mix's edits.
type servingSetup struct {
	corpus   *wiki.Corpus
	snapshot []byte
	reqs     []protocol.MatchRequest
	refs     []*protocol.MatchResponse
	types    map[wiki.LanguagePair][][2]string
	edits    []*edit
}

// edit is one article delta-mix toggles between its original wikitext
// and a copy with one infobox value changed.
type edit struct {
	lang         wiki.Language
	title        string
	pair         wiki.LanguagePair
	typeA, typeB string
	texts        [2]string // original, edited
	state        int       // index of the text the served corpus holds
}

func classOf(ri int) string {
	switch ri {
	case reqPtEn:
		return "pt-en"
	case reqVnEn:
		return "vi-en"
	}
	return "type"
}

// setupServing builds the paper corpus, answers every distinct request
// on a fresh cold session (the references), and saves that session.
func setupServing(ctx context.Context, seed uint64, delta bool, root *Span) (*servingSetup, error) {
	corpus, _, err := synth.Generate(synth.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("generate corpus: %w", err)
	}
	cold := service.New(corpus)
	su := &servingSetup{
		corpus: corpus,
		reqs:   []protocol.MatchRequest{{Pair: wiki.PtEn.String()}, {Pair: wiki.VnEn.String()}},
		types:  map[wiki.LanguagePair][][2]string{},
	}
	for _, pair := range []wiki.LanguagePair{wiki.PtEn, wiki.VnEn} {
		types, err := cold.Types(ctx, pair)
		if err != nil {
			return nil, fmt.Errorf("types %s: %w", pair, err)
		}
		su.types[pair] = types
		for _, tp := range types {
			su.reqs = append(su.reqs, protocol.MatchRequest{Pair: pair.String(), Type: tp[0]})
		}
	}
	for _, req := range su.reqs {
		resp, err := cold.ServeMatch(ctx, req)
		if err != nil {
			return nil, fmt.Errorf("reference %s %q: %w", req.Pair, req.Type, err)
		}
		su.refs = append(su.refs, resp)
	}
	var buf bytes.Buffer
	sp := root.Child("store.save")
	if err := cold.Save(&buf); err != nil {
		return nil, fmt.Errorf("save snapshot: %w", err)
	}
	sp.Count("bytes", float64(buf.Len()))
	sp.End()
	su.snapshot = buf.Bytes()
	if delta {
		su.edits = pickEdits(seed, corpus, su.types)
	}
	return su, nil
}

// pickEdits draws the seeded set of articles delta-mix toggles: for
// every aligned type of both pairs, one typed article with an infobox,
// with one of its values changed. One article per type keeps the
// rebuild work an edit cycle causes the same for every seed; the seed
// picks which article and which value.
func pickEdits(seed uint64, c *wiki.Corpus, types map[wiki.LanguagePair][][2]string) []*edit {
	rng := rand.New(rand.NewPCG(seed, 2))
	var out []*edit
	for _, pair := range []wiki.LanguagePair{wiki.PtEn, wiki.VnEn} {
		for _, tp := range types[pair] {
			var pool []*wiki.Article
			for _, a := range c.OfType(pair.A, tp[0]) {
				if a.Infobox != nil && a.Infobox.Len() > 0 {
					pool = append(pool, a)
				}
			}
			if len(pool) == 0 {
				continue
			}
			a := pool[rng.IntN(len(pool))]
			ed := a.Clone()
			ed.Infobox.Attrs[rng.IntN(len(ed.Infobox.Attrs))].Text += " (rev.)"
			out = append(out, &edit{
				lang: a.Language, title: a.Title, pair: pair, typeA: tp[0], typeB: tp[1],
				texts: [2]string{wiki.RenderPage(a), wiki.RenderPage(ed)},
			})
		}
	}
	// Interleave the pairs' edits in a seeded order.
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// servingRun is one serve-warm or delta-mix run after set-up.
type servingRun struct {
	cfg     runConfig
	delta   bool
	su      *servingSetup
	sess    *service.Session
	cl      *client.Client
	out     *outcome
	sched   []int
	next    atomic.Int64
	edited  int   // edits sent so far; the writer goroutine owns it
	firstOf []int // the request of each class a boot answers
	boots   []float64
}

func runServing(cfg runConfig, delta bool) (*outcome, error) {
	ctx := context.Background()
	out := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, clients: 2}
	if cfg.trace {
		out.tracer = newTracer()
	}
	tr := out.tracer

	// Set-up, several times; the last one is kept.
	var su *servingSetup
	var setups []float64
	for range setupReps {
		su = nil
		settle()
		root := tr.Root("setup")
		start := time.Now()
		var err error
		if su, err = setupServing(ctx, cfg.seed, delta, root); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		root.End()
	}
	out.e2e["setup_s"] = median(setups)

	r := &servingRun{cfg: cfg, delta: delta, su: su, out: out}
	rng := rand.New(rand.NewPCG(cfg.seed, 1))
	r.sched = make([]int, readerMixes)
	for i := range r.sched {
		switch p := rng.Float64(); {
		case p < weightPtEn:
			r.sched[i] = reqPtEn
		case delta || p < weightPtEn+weightVnEn:
			r.sched[i] = reqVnEn
		default:
			r.sched[i] = reqFirstType + rng.IntN(len(su.reqs)-reqFirstType)
		}
	}

	// The first boot batch restores the session the server will serve.
	r.firstOf = []int{reqPtEn, reqVnEn, reqFirstType + rng.IntN(len(su.reqs)-reqFirstType)}
	if err := r.bootBatch(ctx); err != nil {
		return nil, err
	}

	var handler http.Handler = service.NewHandler(r.sess)
	if tr != nil {
		handler = traceHandler(tr, handler)
	}
	srv, err := startServer(handler)
	if err != nil {
		return nil, err
	}
	transport := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}
	defer transport.CloseIdleConnections()
	r.cl, err = client.New(srv.base, client.WithRetries(0, 0),
		client.WithHTTPClient(&http.Client{Transport: transport, Timeout: time.Minute}))
	if err != nil {
		srv.Close()
		return nil, err
	}

	settle()
	r.phase(ctx, warmup, nil)
	if cfg.trace {
		r.tracedPhases(ctx)
	} else if err := r.measure(ctx); err != nil {
		srv.Close()
		return nil, err
	}

	if delta {
		r.finalCheck(ctx)
	}
	if err := srv.Close(); err != nil {
		return nil, fmt.Errorf("server shutdown: %w", err)
	}
	return out, nil
}

// measure runs the untraced measured phase in segments, with a batch
// of boots after each, and derives the end-to-end metrics.
func (r *servingRun) measure(ctx context.Context) error {
	var all phaseResult
	var peak float64
	seg := time.Duration(r.cfg.seconds) * time.Second / segments
	for range segments {
		heap := startHeapSampler()
		ph := r.phase(ctx, seg, nil)
		peak = max(peak, heap.Stop())
		all.reads = append(all.reads, ph.reads...)
		all.deltas = append(all.deltas, ph.deltas...)
		all.elapsed += ph.elapsed
		if err := r.bootBatch(ctx); err != nil {
			return err
		}
	}
	m := r.out.e2e
	m["peak_heap_mb"] = peak
	m["boot_ms"] = median(r.boots)
	if r.delta {
		m["op_ms"] = p50(all.deltas)
	} else {
		ptEn := latencies(all.reads, func(c string) bool { return c == classOf(reqPtEn) })
		if len(ptEn) < 100*minBeyond {
			fmt.Fprintf(os.Stderr, "warning: %d pt-en answers leave fewer than %d below their p1; run longer\n", len(ptEn), minBeyond)
		}
		if len(ptEn) == 0 {
			return fmt.Errorf("no pt-en request succeeded")
		}
		m["op_ms"] = percentile(ptEn, 1)
	}
	r.out.samples = append(append(r.out.samples, all.reads...), all.deltas...)
	r.out.elapsed = all.elapsed
	return nil
}

// bootBatch boots bootsPerBatch sessions the way `wikimatchd -store`
// does — restore the snapshot, then answer the first request of each
// class — and times each boot. Each boot starts from a collected heap,
// as a fresh process would. The run serves the first session it boots;
// every later boot only measures.
func (r *servingRun) bootBatch(ctx context.Context) error {
	for range bootsPerBatch {
		settle()
		root := r.out.tracer.Root("boot")
		start := time.Now()
		sp := root.Child("store.restore")
		sess, err := service.Restore(r.su.corpus, bytes.NewReader(r.su.snapshot))
		sp.End()
		if err != nil {
			return fmt.Errorf("restore snapshot: %w", err)
		}
		ok := true
		for _, ri := range r.firstOf {
			resp, err := sess.ServeMatch(ctx, r.su.reqs[ri])
			if err == nil {
				err = checkMatch(resp, r.su.refs[ri])
			}
			r.out.op(err)
			ok = ok && err == nil
		}
		d := time.Since(start)
		root.End()
		r.boots = append(r.boots, ms(d))
		r.out.samples = append(r.out.samples, sample{class: bootClass, lat: d, ok: ok})
		if r.sess == nil {
			r.sess = sess
		}
	}
	settle()
	return nil
}

// tracedPhases runs the traced run's load: an untraced calibration half
// for the runtime, cache and open-loop figures and the overhead
// baseline, then a traced half for the spans.
func (r *servingRun) tracedPhases(ctx context.Context) {
	half := time.Duration(r.cfg.seconds) * time.Second / 2
	m := r.out.layer

	cache0, rt0 := r.sess.CacheStats(), readRuntime()
	cal := r.phase(ctx, half, nil)
	cache1, rt1 := r.sess.CacheStats(), readRuntime()
	ops := len(cal.reads) + len(cal.deltas)
	runtimeMetrics(rt0, rt1, ops, m)
	hits, builds := float64(cache1.Hits-cache0.Hits), float64(cache1.Misses-cache0.Misses)
	m["artifact.hits"] = hits / float64(ops)
	m["artifact.builds"] = builds / float64(ops)
	if hits+builds > 0 {
		m["artifact.hit_ratio"] = hits / (hits + builds)
	}
	m["client.late_ms"] = median(cal.late)

	traced := r.phase(ctx, half, r.out.tracer)
	r.out.samples = append(append(r.out.samples, traced.reads...), traced.deltas...)
	r.out.elapsed = traced.elapsed
	for k, v := range summarizeTrace(r.out.tracer.Spans()).layerMetrics() {
		m[k] = v
	}
	if base := p50(cal.reads); base > 0 {
		m["trace.overhead_pct"] = 100 * (p50(traced.reads)/base - 1)
	}
}

// phaseResult is one load phase's samples.
type phaseResult struct {
	reads, deltas []sample
	late          []float64 // open-loop writer lag per edit, ms
	elapsed       time.Duration
}

// phase runs the workload's clients for d: two closed-loop readers on
// serve-warm; one closed-loop reader and the open-loop writer on
// delta-mix.
func (r *servingRun) phase(ctx context.Context, d time.Duration, tr *Tracer) phaseResult {
	start := time.Now()
	until := start.Add(d)
	var res phaseResult
	var wg sync.WaitGroup
	var mu sync.Mutex
	readers := 2
	if r.delta {
		readers = 1
		wg.Add(1)
		go func() {
			defer wg.Done()
			deltas, late := r.writer(ctx, start, until, tr)
			mu.Lock()
			res.deltas, res.late = deltas, late
			mu.Unlock()
		}()
	}
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reads := r.reader(ctx, until, tr)
			mu.Lock()
			res.reads = append(res.reads, reads...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// reader is one closed-loop client: it sends the next scheduled request
// as soon as the previous answer is in.
func (r *servingRun) reader(ctx context.Context, until time.Time, tr *Tracer) []sample {
	var out []sample
	for time.Now().Before(until) {
		ri := r.sched[int(r.next.Add(1)-1)%len(r.sched)]
		req := r.su.reqs[ri]
		root := tr.Root("op:" + classOf(ri))
		cs := root.Child("client.match")
		start := time.Now()
		resp, err := r.cl.Match(withSpan(ctx, cs), req)
		lat := time.Since(start)
		cs.End()
		if err == nil {
			err = r.checkRead(resp, ri)
		}
		if err == nil && root != nil {
			err = r.decomposeMatch(ctx, root, req, ri)
		}
		root.End()
		r.out.op(err)
		out = append(out, sample{class: classOf(ri), lat: lat, ok: err == nil})
	}
	return out
}

// checkRead checks one read. serve-warm's corpus never changes, so each
// answer must equal its cold reference. delta-mix reads race the edits,
// so they are checked for shape here and for content after the run.
func (r *servingRun) checkRead(resp *protocol.MatchResponse, ri int) error {
	if !r.delta {
		return checkMatch(resp, r.su.refs[ri])
	}
	want := r.su.refs[ri]
	if resp.Pair != want.Pair || len(resp.Results) != len(want.Results) {
		return fmt.Errorf("match %s: %d results, want %d", want.Pair, len(resp.Results), len(want.Results))
	}
	return nil
}

// decomposeMatch repeats one read layer by layer on the same inputs,
// with a span around each call: the session's typed entry point, the
// wire encoding both ways, and Algorithm 1 per type on the session's
// own cached artifacts.
func (r *servingRun) decomposeMatch(ctx context.Context, root *Span, req protocol.MatchRequest, ri int) error {
	sv := root.Child("service.serve")
	resp, err := r.sess.ServeMatch(ctx, req)
	sv.End()
	if err != nil {
		return err
	}
	if !r.delta {
		if err := checkMatch(resp, r.su.refs[ri]); err != nil {
			return err
		}
	}
	enc := root.Child("protocol.encode")
	raw, err := json.Marshal(resp)
	enc.Count("bytes", float64(len(raw)))
	enc.End()
	if err != nil {
		return err
	}
	dec := root.Child("protocol.decode")
	var back protocol.MatchResponse
	err = json.Unmarshal(raw, &back)
	dec.End()
	if err != nil {
		return err
	}

	pair, err := protocol.ParsePair(req.Pair)
	if err != nil {
		return err
	}
	d, err := r.sess.Dictionary(ctx, pair)
	if err != nil {
		return err
	}
	m := core.NewMatcher(r.sess.Config())
	corpus := r.sess.Corpus()
	for _, tp := range resp.Types {
		cached, err := r.sess.MatchType(ctx, pair, tp[0], tp[1])
		if err != nil {
			return err
		}
		art := &core.TypeArtifacts{TD: cached.TD, LSI: cached.LSI}
		if _, err := matchType(ctx, root, m, corpus, pair, tp, d, art); err != nil {
			return err
		}
	}
	return nil
}

// matchType runs Algorithm 1 for one type pair on prebuilt artifacts,
// under a span that counts its candidates and correspondences.
func matchType(ctx context.Context, root *Span, m *core.Matcher, c *wiki.Corpus, pair wiki.LanguagePair, tp [2]string, d *dict.Dictionary, art *core.TypeArtifacts) (*core.TypeResult, error) {
	cm := root.Child("core.match")
	tres, err := m.MatchTypeCtx(ctx, c, pair, tp[0], tp[1], d, art)
	if err == nil {
		cm.Count("candidates", float64(len(tres.Candidates)))
		cm.Count("correspondences", float64(len(tres.CrossPairsSorted())))
	}
	cm.End()
	return tres, err
}

// writer is delta-mix's open-loop client: edit k is due at start +
// k/deltaRate whatever the state of earlier edits, and its latency runs
// from its due time, so a stall is charged to every edit it delays.
func (r *servingRun) writer(ctx context.Context, start, until time.Time, tr *Tracer) ([]sample, []float64) {
	var out []sample
	var late []float64
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * time.Second / deltaRate)
		if !due.Before(until) {
			return out, late
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		late = append(late, ms(time.Since(due)))

		e := r.su.edits[r.edited%len(r.su.edits)]
		r.edited++
		to := 1 - e.state
		req := protocol.DeltaRequest{Upserts: []protocol.DeltaUpsert{{Lang: e.lang.String(), Title: e.title, Wikitext: e.texts[to]}}}
		root := tr.Root("op:delta")
		before := r.sess.Corpus()
		cs := root.Child("client.delta")
		resp, err := r.cl.Delta(withSpan(ctx, cs), req)
		lat := time.Since(due)
		if err == nil {
			err = checkDelta(resp, e)
		}
		if err == nil {
			e.state = to
			cs.Count("server_ms", resp.ElapsedMS)
		}
		cs.End()
		if err == nil && root != nil {
			err = r.decomposeDelta(ctx, root, before, e)
		}
		root.End()
		r.out.op(err)
		out = append(out, sample{class: "delta", lat: lat, ok: err == nil})
	}
}

// checkDelta checks that an edit replaced exactly its one article.
func checkDelta(resp *protocol.DeltaResponse, e *edit) error {
	if resp.Added != 0 || resp.Updated != 1 || resp.Removed != 0 ||
		len(resp.Languages) != 1 || resp.Languages[0] != e.lang.String() {
		return fmt.Errorf("delta %s:%s: added/updated/removed %d/%d/%d in %v, want 0/1/0 in [%s]",
			e.lang, e.title, resp.Added, resp.Updated, resp.Removed, resp.Languages, e.lang)
	}
	return nil
}

// decomposeDelta repeats one edit layer by layer on its inputs: parsing
// the wikitext, the copy-on-write corpus update and its fingerprint
// (which the delta response carries), the pair-level rebuild
// the session diffs against its cache (type alignment and dictionary),
// and the type-level rebuild the next read of the dirty type pays
// (TypeData and LSI).
func (r *servingRun) decomposeDelta(ctx context.Context, root *Span, before *wiki.Corpus, e *edit) error {
	wp := root.Child("wiki.parse")
	a, err := wiki.ParsePage(e.lang, e.title, e.texts[e.state])
	wp.End()
	if err != nil {
		return err
	}
	wd := root.Child("wiki.with_delta")
	after, _, err := before.WithDelta(wiki.Delta{Upserts: []*wiki.Article{a}})
	wd.End()
	if err != nil {
		return err
	}
	fp := root.Child("wiki.fingerprint")
	after.Fingerprint()
	fp.End()
	al := root.Child("core.align")
	core.MatchEntityTypes(after, e.pair)
	al.End()
	db := root.Child("dict.build")
	d, err := dict.BuildCtx(ctx, after, e.pair.A, e.pair.B)
	if err == nil {
		db.Count("entries", float64(d.Len()))
	}
	db.End()
	if err != nil {
		return err
	}
	_, err = buildTypeArtifacts(ctx, root, r.sess.Config(), after, e.pair, e.typeA, e.typeB, d)
	return err
}

// buildTypeArtifacts builds one type pair's TypeData and LSI model
// under spans, as core.Matcher.BuildTypeArtifacts does.
func buildTypeArtifacts(ctx context.Context, root *Span, cfg core.Config, c *wiki.Corpus, pair wiki.LanguagePair, typeA, typeB string, d *dict.Dictionary) (*core.TypeArtifacts, error) {
	st := root.Child("sim.typedata")
	td, err := sim.BuildTypeDataCtx(ctx, c, pair, typeA, typeB, d)
	if err == nil {
		st.Count("attrs", float64(len(td.Attrs)))
		st.Count("duals", float64(len(td.Duals)))
	}
	st.End()
	if err != nil {
		return nil, err
	}
	_, index := lsi.IndexAttrs(td.Duals, td.Attrs...)
	nnz := lsi.OccurrenceMatrix(td.Duals, index).NNZ()
	lb := root.Child("lsi.build")
	model, err := lsi.BuildWithCtx(ctx, td.Duals, cfg.LSIRank, lsi.Options{ExactSVD: cfg.ExactSVD}, td.Attrs...)
	lb.Count("nnz", float64(nnz))
	lb.End()
	if err != nil {
		return nil, err
	}
	return &core.TypeArtifacts{TD: td, LSI: model}, nil
}

// finalCheck ends delta-mix: after the edits, a read of each pair must
// equal the answer of a fresh cold session over the session's corpus.
func (r *servingRun) finalCheck(ctx context.Context) {
	fresh := service.New(r.sess.Corpus())
	for _, ri := range []int{reqPtEn, reqVnEn} {
		req := r.su.reqs[ri]
		got, err := r.cl.Match(ctx, req)
		if err == nil {
			var want *protocol.MatchResponse
			if want, err = fresh.ServeMatch(ctx, req); err == nil {
				err = checkMatch(got, want)
			}
		}
		if err != nil {
			err = fmt.Errorf("final read: %w", err)
		}
		r.out.op(err)
	}
}

// withSpan carries a span reference to the server side of an HTTP call
// as the request ID; untraced calls go out unchanged.
func withSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return protocol.ContextWithRequestID(ctx, s.Token())
}

// traceHandler wraps the /v1 handler with a server-side span that is a
// child of the client span named by the request ID.
func traceHandler(tr *Tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		sp := tr.ChildOfToken(req.Header.Get("X-Request-Id"), "service.handler")
		next.ServeHTTP(w, req)
		sp.End()
	})
}

// server is the in-process /v1 server on a loopback port.
type server struct {
	srv  *http.Server
	done chan error
	base string
}

func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: &http.Server{Handler: h}, done: make(chan error, 1), base: "http://" + ln.Addr().String()}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// Close shuts the server down and waits for it to stop serving.
func (s *server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	<-s.done
	return err
}

// p50 is the median latency of the successful samples, in ms.
func p50(samples []sample) float64 {
	lats := latencies(samples, func(string) bool { return true })
	if len(lats) == 0 {
		return 0
	}
	return percentile(lats, 50)
}
