package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/ingest"
	"repro/internal/multi"
	"repro/internal/protocol"
	"repro/internal/service"
	"repro/internal/synth"
	"repro/internal/wiki"
)

// dump-matchall is the cold offline path: every operation ingests a
// 12-edition DBpedia TTL dump, opens a fresh session on it, runs a cold
// pivot matchall and encodes the response — from dump files to the
// answer a client would receive.

// dumpScale multiplies the entities of the 12-edition fixture
// (synth.DefaultEditions); at 4 the dump is about 13 MB.
const dumpScale = 4

// dumpSetup is what set-up leaves behind: the dump on disk, the
// generated corpus's fingerprint, the reference answer's digest and a
// snapshot of the cold-built session for the boots.
type dumpSetup struct {
	corpus      *wiki.Corpus
	dir         string
	fingerprint uint64
	digest      string
	snapshot    []byte
}

// setupDump generates the seeded 12-edition corpus, writes it as plain
// TTL dumps, and answers a cold pivot matchall on it in process (the
// reference) before saving that session.
func setupDump(ctx context.Context, cfg runConfig, root *Span) (*dumpSetup, error) {
	ec := synth.DefaultEditions()
	ec.EntitiesPerType *= dumpScale
	ec.Seed = cfg.seed
	corpus, _, err := synth.Editions(ec)
	if err != nil {
		return nil, fmt.Errorf("generate editions: %w", err)
	}
	su := &dumpSetup{corpus: corpus, dir: filepath.Join(cfg.workdir, "dump"), fingerprint: corpus.Fingerprint()}
	if err := os.RemoveAll(su.dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(su.dir, 0o755); err != nil {
		return nil, err
	}
	for _, lang := range corpus.Languages() {
		if err := writeDump(filepath.Join(su.dir, lang.String()+"-infobox-properties.ttl"), func(w *os.File) error {
			return ingest.WriteProperties(w, corpus, lang)
		}); err != nil {
			return nil, err
		}
		if err := writeDump(filepath.Join(su.dir, lang.String()+"-interlanguage-links.ttl"), func(w *os.File) error {
			return ingest.WriteLinks(w, corpus, lang)
		}); err != nil {
			return nil, err
		}
	}
	cold := service.New(corpus)
	ref, err := cold.ServeMatchAll(ctx, protocol.MatchRequest{All: true})
	if err != nil {
		return nil, fmt.Errorf("reference matchall: %w", err)
	}
	for _, p := range ref.Pairs {
		if p.Error != "" {
			return nil, fmt.Errorf("reference matchall: pair %s: %s", p.Pair, p.Error)
		}
	}
	if su.digest, err = matchAllDigest(ref); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	sp := root.Child("store.save")
	if err := cold.Save(&buf); err != nil {
		return nil, fmt.Errorf("save snapshot: %w", err)
	}
	sp.Count("bytes", float64(buf.Len()))
	sp.End()
	su.snapshot = buf.Bytes()
	return su, nil
}

func writeDump(path string, render func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func runDump(cfg runConfig) (*outcome, error) {
	ctx := context.Background()
	out := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, clients: 1}
	if cfg.trace {
		out.tracer = newTracer()
	}
	tr := out.tracer

	var su *dumpSetup
	var setups []float64
	for range setupReps {
		su = nil
		settle()
		root := tr.Root("setup")
		start := time.Now()
		var err error
		if su, err = setupDump(ctx, cfg, root); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		root.End()
	}
	out.e2e["setup_s"] = median(setups)

	d := &dumpRun{su: su, out: out}
	if err := d.bootBatch(ctx); err != nil {
		return nil, err
	}
	d.phase(ctx, 1, time.Time{}, nil) // warm-up: one unmeasured operation
	if !cfg.trace {
		var all dumpPhase
		var peak float64
		seg := time.Duration(cfg.seconds) * time.Second / segments
		for range segments {
			heap := startHeapSampler()
			ph := d.phase(ctx, 0, time.Now().Add(seg), nil)
			peak = max(peak, heap.Stop())
			all.samples = append(all.samples, ph.samples...)
			all.elapsed += ph.elapsed
			if err := d.bootBatch(ctx); err != nil {
				return nil, err
			}
		}
		out.e2e["peak_heap_mb"] = peak
		out.e2e["boot_ms"] = median(d.boots)
		out.e2e["op_ms"] = p50(all.samples)
		out.samples = append(out.samples, all.samples...)
		out.elapsed = all.elapsed
		return out, nil
	}

	// Traced run: an untraced calibration half, then a traced half.
	half := time.Duration(cfg.seconds) * time.Second / 2
	rt0 := readRuntime()
	cal := d.phase(ctx, 0, time.Now().Add(half), nil)
	ops := float64(len(cal.samples))
	runtimeMetrics(rt0, readRuntime(), len(cal.samples), out.layer)
	hits, builds := float64(cal.hits), float64(cal.builds)
	out.layer["artifact.hits"] = hits / ops
	out.layer["artifact.builds"] = builds / ops
	if hits+builds > 0 {
		out.layer["artifact.hit_ratio"] = hits / (hits + builds)
	}
	traced := d.phase(ctx, 0, time.Now().Add(half), tr)
	out.samples = append(out.samples, traced.samples...)
	out.elapsed = traced.elapsed
	for k, v := range summarizeTrace(tr.Spans()).layerMetrics() {
		out.layer[k] = v
	}
	if base := p50(cal.samples); base > 0 {
		out.layer["trace.overhead_pct"] = 100 * (p50(traced.samples)/base - 1)
	}
	return out, nil
}

// bootBatch boots bootsPerBatch 12-edition servers from the set-up's
// snapshot, each up to its first (warm) matchall answer, and times
// each boot. Each boot starts from a collected heap.
func (d *dumpRun) bootBatch(ctx context.Context) error {
	for range bootsPerBatch {
		settle()
		root := d.out.tracer.Root("boot")
		start := time.Now()
		sp := root.Child("store.restore")
		sess, err := service.Restore(d.su.corpus, bytes.NewReader(d.su.snapshot))
		sp.End()
		if err != nil {
			return fmt.Errorf("restore snapshot: %w", err)
		}
		resp, err := sess.ServeMatchAll(ctx, protocol.MatchRequest{All: true})
		if err == nil {
			err = checkMatchAll(resp, d.su.digest)
		}
		d.out.op(err)
		dur := time.Since(start)
		root.End()
		d.boots = append(d.boots, ms(dur))
		d.out.samples = append(d.out.samples, sample{class: bootClass, lat: dur, ok: err == nil})
	}
	settle()
	return nil
}

// dumpRun is one dump-matchall run after set-up.
type dumpRun struct {
	su    *dumpSetup
	out   *outcome
	boots []float64
}

// dumpPhase is one load phase's operations and the artifact-cache
// counters of their sessions.
type dumpPhase struct {
	samples      []sample
	hits, builds uint64
	elapsed      time.Duration
}

// phase runs operations one after another: exactly n of them when n >
// 0, otherwise until the deadline has passed.
func (d *dumpRun) phase(ctx context.Context, n int, until time.Time, tr *Tracer) dumpPhase {
	var ph dumpPhase
	start := time.Now()
	for i := 0; n > 0 && i < n || n == 0 && time.Now().Before(until); i++ {
		s, cache := d.operation(ctx, tr)
		ph.samples = append(ph.samples, s)
		ph.hits += cache.Hits
		ph.builds += cache.Misses
	}
	ph.elapsed = time.Since(start)
	return ph
}

// operation runs and checks one dump-to-answer operation. Only the
// operation itself is timed; the checks and, in the traced run, the
// layer-by-layer repeat come after.
func (d *dumpRun) operation(ctx context.Context, tr *Tracer) (sample, protocol.CacheStats) {
	root := tr.Root("op:answer")
	start := time.Now()
	sp := root.Child("ingest.dir")
	res, err := ingest.Dir(ctx, d.su.dir, ingest.Options{})
	if err == nil {
		sp.Count("bytes", float64(res.Bytes))
		tot := res.Totals()
		sp.Count("skipped", float64(tot.SkippedTotal()))
	}
	sp.End()
	var (
		sess *service.Session
		resp *protocol.MatchAllResponse
		raw  []byte
	)
	if err == nil {
		sv := root.Child("service.serve")
		sess = service.New(res.Corpus)
		resp, err = sess.ServeMatchAll(ctx, protocol.MatchRequest{All: true})
		sv.End()
	}
	if err == nil {
		enc := root.Child("protocol.encode")
		raw, err = json.Marshal(resp)
		enc.Count("bytes", float64(len(raw)))
		enc.End()
	}
	lat := time.Since(start)

	if err == nil && res.Corpus.Fingerprint() != d.su.fingerprint {
		err = fmt.Errorf("ingest: corpus fingerprint %016x, want %016x", res.Corpus.Fingerprint(), d.su.fingerprint)
	}
	if err == nil {
		err = checkMatchAll(resp, d.su.digest)
	}
	var cache protocol.CacheStats
	if sess != nil {
		cache = sess.CacheStats()
	}
	if err == nil && root != nil {
		err = decomposeMatchAll(ctx, root, res.Corpus, raw, resp)
	}
	root.End()
	d.out.op(err)
	return sample{class: "answer", lat: lat, ok: err == nil}, cache
}

// decomposeMatchAll repeats one cold pivot matchall layer by layer on
// the ingested corpus, with a span around each call: decoding the wire
// response, then per planned pair the entity-type alignment and the
// dictionary, per type TypeData, LSI and Algorithm 1, and finally the
// cluster merge. The merged clusters must equal the served ones.
func decomposeMatchAll(ctx context.Context, root *Span, c *wiki.Corpus, raw []byte, resp *protocol.MatchAllResponse) error {
	dec := root.Child("protocol.decode")
	var back protocol.MatchAllResponse
	err := json.Unmarshal(raw, &back)
	dec.End()
	if err != nil {
		return err
	}
	plan, err := multi.NewPlan(c.Languages(), multi.ModePivot, "")
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	m := core.NewMatcher(cfg)
	var outcomes []multi.PairOutcome
	for _, pair := range plan.Pairs {
		al := root.Child("core.align")
		types := core.MatchEntityTypes(c, pair)
		al.End()
		db := root.Child("dict.build")
		dd, err := dict.BuildCtx(ctx, c, pair.A, pair.B)
		if err == nil {
			db.Count("entries", float64(dd.Len()))
		}
		db.End()
		if err != nil {
			return err
		}
		res := &core.Result{Pair: pair, Types: types, PerType: map[[2]string]*core.TypeResult{}, Dict: dd}
		for _, tp := range types {
			art, err := buildTypeArtifacts(ctx, root, cfg, c, pair, tp[0], tp[1], dd)
			if err != nil {
				return err
			}
			if res.PerType[tp], err = matchType(ctx, root, m, c, pair, tp, dd, art); err != nil {
				return err
			}
		}
		outcomes = append(outcomes, multi.PairOutcome{Pair: pair, Result: res})
	}
	mc := root.Child("multi.clusters")
	clusters := multi.BuildClusters(plan, outcomes)
	mc.Count("clusters", float64(len(clusters)))
	mc.End()
	got, err := json.Marshal(clusters)
	if err != nil {
		return err
	}
	want, err := json.Marshal(resp.Clusters)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("matchall: clusters merged layer by layer differ from the served ones")
	}
	return nil
}
