// Command benchall regenerates every table and figure of the paper's
// evaluation and prints them in the same row/series layout the paper
// reports. Four extra experiments time the substrate: "svd" compares
// the seed's dense-Jacobi-then-truncate decomposition against the sparse
// subsystem over every type's occurrence matrix, "session" measures the
// serving-path speedup of a warm session (cached dictionaries and LSI
// artifacts) over a cold one — the cmd-level twin of the
// BenchmarkSessionWarmVsCold gate — "store" times snapshot save/load
// against a cold artifact build, the cmd-level twin of
// BenchmarkStoreRestoreVsCold — and "http" drives a real wikimatchd
// handler over wire protocol v1 through the client SDK, reporting warm
// unary latency and request throughput. "timings" runs all four.
//
// The timing experiments can emit machine-readable output with -json:
// one JSON document carrying the measured sections, for regression
// tracking and the CI warm-session speedup gate.
//
// Usage:
//
// A fifth timing experiment, "router", measures the fleet layer: it
// builds wikimatchd, boots single-core replica subprocesses
// (GOMAXPROCS=1 each, simulating small nodes), and compares a direct
// all-pairs batch on one replica against the same batch
// scatter-gathered by an in-process router over three shard replicas —
// plus the warm unary router-hop overhead. It shells out to the go
// toolchain and must run from inside the repository.
//
// A sixth timing experiment, "audit", times the cross-edition value
// consistency audit end to end: a cold POST /v1/audit on a fresh
// session (the matching phase builds every artifact) against a warm one
// on the same session (the batch served from the artifact cache, only
// the value comparison rerunning).
//
// A seventh timing experiment, "score", measures the pruned scoring
// path against the exhaustive reference on the dump-scale fixture (one
// entity type, hundreds of attributes) with warm artifacts and the
// revise stage disabled on both sides, so the number isolates exactly
// the stage pruning optimizes. The results themselves are proven
// byte-identical by the core equivalence tests; this experiment times
// them.
//
// An eighth timing experiment, "ingest", measures the dump-ingestion
// front door: it generates the multi-edition corpus at ten times the
// fixture scale, writes it as DBpedia-style TTL dumps, and times
// internal/ingest streaming the set back into a corpus — reporting
// throughput (MB/s over raw dump bytes) and the sampled peak heap
// growth the CI ingestion gate bounds. The round trip is verified by
// corpus fingerprint before any number is reported.
//
// With -json, -trajectory FILE upserts the measured document into the
// named trajectory file (BENCH_TRAJECTORY.json in the repo root) under
// the entry name given by -pr, preserving the floors and every other
// entry — the append-only perf history the CI bench gates read their
// thresholds from.
//
//	benchall [-scale small|full] [-run all|table1..table7|figure3..figure7|svd|session|store|http|router|audit|score|ingest|timings] [-json] [-trajectory FILE -pr NAME]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/experiments"
	"repro/internal/linalg"
	"repro/internal/lsi"
	"repro/internal/protocol"
	"repro/internal/service"
	"repro/internal/synth"
	"repro/internal/wiki"
)

func main() {
	scale := flag.String("scale", "full", "corpus scale: small or full")
	run := flag.String("run", "all", "experiment to run (all, table1..table7, figure3..figure7, svd, session, store, http, router, audit, score, ingest, timings)")
	jsonOut := flag.Bool("json", false, "emit the timing experiments (svd/session/store/http/audit/score/ingest/timings) as one JSON document")
	trajectory := flag.String("trajectory", "", "with -json: upsert the measured document into this trajectory file")
	prName := flag.String("pr", "", "entry name for -trajectory (e.g. pr9)")
	flag.Parse()
	if *scale != "small" && *scale != "full" {
		fmt.Fprintf(os.Stderr, "-scale must be small or full, not %q\n", *scale)
		os.Exit(2)
	}

	emitJSON := func(doc timingDoc) {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintln(os.Stderr, "encode:", err)
			os.Exit(1)
		}
		if *trajectory != "" {
			if *prName == "" {
				fmt.Fprintln(os.Stderr, "-trajectory needs -pr to name the entry")
				os.Exit(2)
			}
			if err := upsertTrajectory(*trajectory, *prName, doc); err != nil {
				fmt.Fprintln(os.Stderr, "trajectory:", err)
				os.Exit(1)
			}
		}
	}

	// The router experiment drives wikimatchd subprocesses and needs no
	// in-process Setup — building one would just bloat this process's
	// heap while it plays the router role.
	if *run == "router" {
		rt := measureRouter(*scale)
		if *jsonOut {
			emitJSON(timingDoc{Scale: *scale, Router: &rt})
			return
		}
		renderRouterTimings(rt)
		return
	}

	// The ingest experiment generates its own 10×-scale multi-edition
	// dump set and measures streaming it back; no Setup either.
	if *run == "ingest" {
		it := measureIngest()
		if *jsonOut {
			emitJSON(timingDoc{Scale: *scale, Ingest: &it})
			return
		}
		renderIngestTimings(it)
		return
	}

	// The score experiment runs on its own dump-scale fixture, not the
	// -scale synthetic corpus, so it skips the Setup build too.
	if *run == "score" {
		st := measureScore()
		if *jsonOut {
			emitJSON(timingDoc{Scale: *scale, Score: &st})
			return
		}
		renderScoreTimings(st)
		return
	}

	cfg := synth.DefaultConfig()
	if *scale == "small" {
		cfg = synth.SmallConfig()
	}
	s, err := experiments.NewSetup(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "setup:", err)
		os.Exit(1)
	}
	mcfg := core.DefaultConfig()
	w := os.Stdout

	if *jsonOut {
		doc := timingDoc{Scale: *scale}
		switch *run {
		case "svd":
			doc.SVD = measureSVD(s)
		case "session":
			doc.Session = measureSession(s)
		case "store":
			st := measureStore(s)
			doc.Store = &st
		case "http":
			doc.HTTP = measureHTTP(s)
		case "audit":
			at := measureAudit(s)
			doc.Audit = &at
		case "timings":
			doc.SVD = measureSVD(s)
			doc.Session = measureSession(s)
			st := measureStore(s)
			doc.Store = &st
			doc.HTTP = measureHTTP(s)
			at := measureAudit(s)
			doc.Audit = &at
			sc := measureScore()
			doc.Score = &sc
		default:
			fmt.Fprintf(os.Stderr, "-json applies to the timing experiments only (svd, session, store, http, audit, score, timings), not %q\n", *run)
			os.Exit(2)
		}
		emitJSON(doc)
		return
	}

	switch *run {
	case "all":
		if err := experiments.RenderAll(w, s, mcfg); err != nil {
			fmt.Fprintln(os.Stderr, "render:", err)
			os.Exit(1)
		}
	case "table1":
		experiments.RenderTable1(w, s.Table1(mcfg))
	case "table2":
		experiments.RenderTable2(w, s.Table2(mcfg))
	case "table3":
		experiments.RenderTable3(w, s.Table3(mcfg))
	case "table5":
		experiments.RenderTable5(w, s.Table5())
	case "table6":
		experiments.RenderTable6(w, s.Table6(mcfg))
	case "table7":
		experiments.RenderTable7(w, s.Table7(mcfg, cfg.Seed))
	case "figure3":
		experiments.RenderFigure3(w, s.Figure3(mcfg))
	case "figure4":
		series, err := s.Figure4(mcfg, 20)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figure4:", err)
			os.Exit(1)
		}
		experiments.RenderFigure4(w, series)
	case "figure5":
		experiments.RenderFigure5(w, s.Figure5(mcfg))
	case "figure6":
		experiments.RenderFigure6(w, s.Figure6(mcfg))
	case "figure7":
		experiments.RenderFigure7(w, s.Figure7())
	case "correlation":
		experiments.RenderOverlapCorrelations(w, s.OverlapCorrelations(mcfg))
	case "extensions":
		experiments.RenderExtensions(w, s.Extensions(mcfg))
	case "svd":
		renderSVDTimings(measureSVD(s))
	case "session":
		renderSessionTimings(measureSession(s))
	case "store":
		renderStoreTimings(measureStore(s))
	case "http":
		renderHTTPTimings(measureHTTP(s))
	case "audit":
		renderAuditTimings(measureAudit(s))
	case "timings":
		renderSVDTimings(measureSVD(s))
		fmt.Println()
		renderSessionTimings(measureSession(s))
		fmt.Println()
		renderStoreTimings(measureStore(s))
		fmt.Println()
		renderHTTPTimings(measureHTTP(s))
		fmt.Println()
		renderAuditTimings(measureAudit(s))
		fmt.Println()
		renderScoreTimings(measureScore())
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *run)
		os.Exit(2)
	}
}

// timingDoc is the -json output: only the measured sections are present.
type timingDoc struct {
	Scale   string          `json:"scale"`
	SVD     []svdTiming     `json:"svd,omitempty"`
	Session []sessionTiming `json:"session,omitempty"`
	Store   *storeTiming    `json:"store,omitempty"`
	HTTP    []httpTiming    `json:"http,omitempty"`
	Router  *routerTiming   `json:"router,omitempty"`
	Audit   *auditTiming    `json:"audit,omitempty"`
	Score   *scoreTiming    `json:"score,omitempty"`
	Ingest  *ingestTiming   `json:"ingest,omitempty"`
}

// trajectoryFile is the committed perf history (BENCH_TRAJECTORY.json):
// one entry per PR plus the floors the CI bench gates enforce.
type trajectoryFile struct {
	Floors  map[string]float64 `json:"floors"`
	Entries []trajectoryEntry  `json:"entries"`
}

type trajectoryEntry struct {
	PR string `json:"pr"`
	timingDoc
}

// upsertTrajectory merges doc into the trajectory file under the entry
// named pr: an existing entry with that name gains doc's measured
// sections (sections doc did not measure are kept), any other entry and
// the floors pass through untouched, and a new name appends.
func upsertTrajectory(path, pr string, doc timingDoc) error {
	var tf trajectoryFile
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &tf); err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	merged := false
	for i := range tf.Entries {
		if tf.Entries[i].PR != pr {
			continue
		}
		e := &tf.Entries[i].timingDoc
		e.Scale = doc.Scale
		if doc.SVD != nil {
			e.SVD = doc.SVD
		}
		if doc.Session != nil {
			e.Session = doc.Session
		}
		if doc.Store != nil {
			e.Store = doc.Store
		}
		if doc.HTTP != nil {
			e.HTTP = doc.HTTP
		}
		if doc.Router != nil {
			e.Router = doc.Router
		}
		if doc.Audit != nil {
			e.Audit = doc.Audit
		}
		if doc.Score != nil {
			e.Score = doc.Score
		}
		if doc.Ingest != nil {
			e.Ingest = doc.Ingest
		}
		merged = true
		break
	}
	if !merged {
		tf.Entries = append(tf.Entries, trajectoryEntry{PR: pr, timingDoc: doc})
	}
	out, err := json.MarshalIndent(tf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// svdTiming is one entity type's dense-vs-sparse decomposition timing.
type svdTiming struct {
	Pair     string  `json:"pair"`
	Type     string  `json:"type"`
	Rows     int     `json:"rows"`
	Cols     int     `json:"cols"`
	NNZ      int     `json:"nnz"`
	DenseNS  int64   `json:"denseNs"`
	SparseNS int64   `json:"sparseNs"`
	Speedup  float64 `json:"speedup"`
}

// sessionTiming is one pair's cold-vs-warm session match timing.
type sessionTiming struct {
	Pair    string  `json:"pair"`
	Types   int     `json:"types"`
	ColdNS  int64   `json:"coldNs"`
	WarmNS  int64   `json:"warmNs"`
	Speedup float64 `json:"speedup"`
}

// storeTiming is the snapshot save/load timing against a cold build.
type storeTiming struct {
	RestoredPairs int     `json:"restoredPairs"`
	RestoredTypes int     `json:"restoredTypes"`
	SnapshotBytes int     `json:"snapshotBytes"`
	ColdNS        int64   `json:"coldNs"`
	SaveNS        int64   `json:"saveNs"`
	LoadNS        int64   `json:"loadNs"`
	ServeNS       int64   `json:"serveNs"`
	LoadSpeedup   float64 `json:"loadSpeedup"`
}

// httpTiming is one pair's wire-protocol serving-path timing.
type httpTiming struct {
	Pair          string  `json:"pair"`
	WarmUnaryNS   int64   `json:"warmUnaryNs"`
	SeqReqPerSec  float64 `json:"seqReqPerSec"`
	ConcReqPerSec float64 `json:"concReqPerSec"`
}

// measureSVD compares the seed's dense Jacobi SVD with the sparse path
// lsi.Build uses today, per entity type, on the type's real
// dual-occurrence matrix.
func measureSVD(s *experiments.Setup) []svdTiming {
	var out []svdTiming
	for _, pair := range s.Pairs() {
		for _, tc := range s.Cases(pair) {
			_, index := lsi.IndexAttrs(tc.TD.Duals, tc.TD.Attrs...)
			sp := lsi.OccurrenceMatrix(tc.TD.Duals, index)
			dense := sp.Dense()
			denseT := timeIt(func() { linalg.TruncatedSVD(dense, lsi.DefaultRank) })
			sparseT := timeIt(func() { linalg.SparseTruncatedSVD(sp, lsi.DefaultRank) })
			out = append(out, svdTiming{
				Pair: pair.String(), Type: tc.Canon,
				Rows: sp.Rows, Cols: sp.Cols, NNZ: sp.NNZ(),
				DenseNS: int64(denseT), SparseNS: int64(sparseT),
				Speedup: float64(denseT) / float64(sparseT),
			})
		}
	}
	return out
}

func renderSVDTimings(rows []svdTiming) {
	fmt.Printf("%-6s %-22s %10s %9s %12s %12s %8s\n",
		"pair", "type", "matrix", "nnz", "dense-jacobi", "sparse-auto", "speedup")
	for _, r := range rows {
		fmt.Printf("%-6s %-22s %4d×%-5d %9d %12s %12s %7.1fx\n",
			r.Pair, r.Type, r.Rows, r.Cols, r.NNZ,
			time.Duration(r.DenseNS).Round(time.Microsecond),
			time.Duration(r.SparseNS).Round(time.Microsecond), r.Speedup)
	}
}

// measureSession measures the artifact cache's serving-path win: per
// pair, a cold session match (fresh session each run, rebuilding
// dictionary + per-type LSI models) against a warm match on one
// prewarmed session (alignment only).
func measureSession(s *experiments.Setup) []sessionTiming {
	ctx := context.Background()
	var out []sessionTiming
	for _, pair := range []wiki.LanguagePair{wiki.PtEn, wiki.VnEn} {
		var types int
		cold := timeIt(func() {
			res, err := service.New(s.Corpus).Match(ctx, pair)
			if err != nil {
				fmt.Fprintln(os.Stderr, "cold match:", err)
				os.Exit(1)
			}
			types = len(res.Types)
		})
		sess := service.New(s.Corpus)
		if _, err := sess.Match(ctx, pair); err != nil {
			fmt.Fprintln(os.Stderr, "prewarm:", err)
			os.Exit(1)
		}
		warm := timeIt(func() {
			if _, err := sess.Match(ctx, pair); err != nil {
				fmt.Fprintln(os.Stderr, "warm match:", err)
				os.Exit(1)
			}
		})
		out = append(out, sessionTiming{
			Pair: pair.String(), Types: types,
			ColdNS: int64(cold), WarmNS: int64(warm),
			Speedup: float64(cold) / float64(warm),
		})
	}
	return out
}

func renderSessionTimings(rows []sessionTiming) {
	fmt.Printf("%-6s %6s %12s %12s %8s\n", "pair", "types", "cold", "warm", "speedup")
	for _, r := range rows {
		fmt.Printf("%-6s %6d %12s %12s %7.1fx\n",
			r.Pair, r.Types,
			time.Duration(r.ColdNS).Round(time.Microsecond),
			time.Duration(r.WarmNS).Round(time.Microsecond), r.Speedup)
	}
}

// measureStore measures the persistence layer's offline/online split at
// the chosen -scale: building every artifact cold (fresh session, both
// pairs) versus saving the warm cache as a snapshot and restoring it —
// the warm-start path wikimatchd -store takes on boot.
func measureStore(s *experiments.Setup) storeTiming {
	ctx := context.Background()
	pairs := []wiki.LanguagePair{wiki.PtEn, wiki.VnEn}
	matchAll := func(sess *service.Session) {
		for _, pair := range pairs {
			if _, err := sess.Match(ctx, pair); err != nil {
				fmt.Fprintln(os.Stderr, "match:", err)
				os.Exit(1)
			}
		}
	}
	cold := timeIt(func() { matchAll(service.New(s.Corpus)) })

	warm := service.New(s.Corpus)
	matchAll(warm)
	var buf bytes.Buffer
	save := timeIt(func() {
		buf.Reset()
		if err := warm.Save(&buf); err != nil {
			fmt.Fprintln(os.Stderr, "save:", err)
			os.Exit(1)
		}
	})
	var restored *service.Session
	load := timeIt(func() {
		var err error
		if restored, err = service.Restore(s.Corpus, bytes.NewReader(buf.Bytes())); err != nil {
			fmt.Fprintln(os.Stderr, "restore:", err)
			os.Exit(1)
		}
	})
	serve := timeIt(func() { matchAll(restored) })

	cs := restored.CacheStats()
	return storeTiming{
		RestoredPairs: cs.RestoredPairs, RestoredTypes: cs.RestoredTypes,
		SnapshotBytes: buf.Len(),
		ColdNS:        int64(cold), SaveNS: int64(save),
		LoadNS: int64(load), ServeNS: int64(serve),
		LoadSpeedup: float64(cold) / float64(load),
	}
}

func renderStoreTimings(st storeTiming) {
	fmt.Printf("artifacts: %d pairs, %d types, snapshot %d bytes\n",
		st.RestoredPairs, st.RestoredTypes, st.SnapshotBytes)
	fmt.Printf("%-22s %12s\n", "stage", "time")
	fmt.Printf("%-22s %12s\n", "cold build+match", time.Duration(st.ColdNS).Round(time.Microsecond))
	fmt.Printf("%-22s %12s\n", "snapshot save", time.Duration(st.SaveNS).Round(time.Microsecond))
	fmt.Printf("%-22s %12s\n", "snapshot load", time.Duration(st.LoadNS).Round(time.Microsecond))
	fmt.Printf("%-22s %12s\n", "match after restore", time.Duration(st.ServeNS).Round(time.Microsecond))
	fmt.Printf("load vs cold build: %.1fx faster\n", st.LoadSpeedup)
}

// measureHTTP measures the serving path end to end over wire protocol
// v1: a real HTTP server over one warm session, driven by the Go client
// SDK. Reported per pair: the unary /v1/match latency on the warm
// cache, sequential and concurrent request throughput — the cmd-level
// twin of BenchmarkHTTPMatchThroughput.
func measureHTTP(s *experiments.Setup) []httpTiming {
	ctx := context.Background()
	srv := httptest.NewServer(service.NewHandler(service.New(s.Corpus)))
	defer srv.Close()
	c, err := client.New(srv.URL)
	if err != nil {
		fmt.Fprintln(os.Stderr, "client:", err)
		os.Exit(1)
	}
	const (
		seqRequests = 16
		conc        = 8
	)
	var out []httpTiming
	for _, pairName := range []string{"pt-en", "vi-en"} {
		req := protocol.MatchRequest{Pair: pairName}
		if _, err := c.Match(ctx, req); err != nil { // warm the cache
			fmt.Fprintln(os.Stderr, "warm match:", err)
			os.Exit(1)
		}
		warm := timeIt(func() {
			if _, err := c.Match(ctx, req); err != nil {
				fmt.Fprintln(os.Stderr, "match:", err)
				os.Exit(1)
			}
		})
		seq := timeIt(func() {
			for i := 0; i < seqRequests; i++ {
				if _, err := c.Match(ctx, req); err != nil {
					fmt.Fprintln(os.Stderr, "match:", err)
					os.Exit(1)
				}
			}
		})
		par := timeIt(func() {
			var wg sync.WaitGroup
			for w := 0; w < conc; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < seqRequests/conc; i++ {
						if _, err := c.Match(ctx, req); err != nil {
							fmt.Fprintln(os.Stderr, "match:", err)
							os.Exit(1)
						}
					}
				}()
			}
			wg.Wait()
		})
		out = append(out, httpTiming{
			Pair:          pairName,
			WarmUnaryNS:   int64(warm),
			SeqReqPerSec:  float64(seqRequests) / seq.Seconds(),
			ConcReqPerSec: float64(seqRequests) / par.Seconds(),
		})
	}
	return out
}

func renderHTTPTimings(rows []httpTiming) {
	fmt.Printf("%-6s %12s %14s %14s\n", "pair", "warm-unary", "seq req/s", "conc req/s")
	for _, r := range rows {
		fmt.Printf("%-6s %12s %14.1f %14.1f\n", r.Pair,
			time.Duration(r.WarmUnaryNS).Round(time.Microsecond),
			r.SeqReqPerSec, r.ConcReqPerSec)
	}
}

// auditTiming is the consistency audit's cold-vs-warm serving timing:
// cold pays the full matching phase, warm serves the batch from the
// artifact cache and only reruns the value comparison.
type auditTiming struct {
	Clusters int     `json:"clusters"`
	Entities int     `json:"entities"`
	Compared int     `json:"compared"`
	Findings int     `json:"findings"`
	ColdNS   int64   `json:"coldNs"`
	WarmNS   int64   `json:"warmNs"`
	Speedup  float64 `json:"speedup"`
}

// measureAudit times POST /v1/audit through the typed serving path: a
// cold run on a fresh session against a warm rerun on the same session.
func measureAudit(s *experiments.Setup) auditTiming {
	ctx := context.Background()
	req := protocol.AuditRequest{}
	var resp *protocol.AuditResponse
	cold := timeIt(func() {
		var err error
		if resp, err = service.New(s.Corpus).ServeAudit(ctx, req); err != nil {
			fmt.Fprintln(os.Stderr, "cold audit:", err)
			os.Exit(1)
		}
	})
	sess := service.New(s.Corpus)
	if _, err := sess.ServeAudit(ctx, req); err != nil {
		fmt.Fprintln(os.Stderr, "prewarm audit:", err)
		os.Exit(1)
	}
	warm := timeIt(func() {
		if _, err := sess.ServeAudit(ctx, req); err != nil {
			fmt.Fprintln(os.Stderr, "warm audit:", err)
			os.Exit(1)
		}
	})
	return auditTiming{
		Clusters: resp.Clusters, Entities: resp.Entities,
		Compared: resp.Compared, Findings: len(resp.Findings),
		ColdNS: int64(cold), WarmNS: int64(warm),
		Speedup: float64(cold) / float64(warm),
	}
}

func renderAuditTimings(at auditTiming) {
	fmt.Printf("audit: %d clusters, %d entities, %d comparisons, %d findings\n",
		at.Clusters, at.Entities, at.Compared, at.Findings)
	fmt.Printf("%-12s %12s\n", "stage", "time")
	fmt.Printf("%-12s %12s\n", "cold", time.Duration(at.ColdNS).Round(time.Microsecond))
	fmt.Printf("%-12s %12s\n", "warm", time.Duration(at.WarmNS).Round(time.Microsecond))
	fmt.Printf("warm vs cold: %.1fx faster\n", at.Speedup)
}

// scoreTiming is the pruned-vs-exhaustive scoring-stage timing on the
// dump-scale fixture with warm artifacts.
type scoreTiming struct {
	Attrs        int     `json:"attrs"`
	Boxes        int     `json:"boxes"`
	Queue        int     `json:"queue"`
	Matches      int     `json:"matches"`
	PrunedNS     int64   `json:"prunedNs"`
	ExhaustiveNS int64   `json:"exhaustiveNs"`
	Speedup      float64 `json:"speedup"`
}

// measureScore times MatchTypeCtx on the shared dump-scale fixture
// (synth.DefaultDumpScale — one entity type, hundreds of attributes,
// the regime where pair scoring dominates) over warm artifacts: the
// default pruned configuration against the exhaustive reference. The
// revise stage is disabled on both sides — it runs identical code on
// either path and would only dilute the ratio; the full-pipeline
// equivalence is pinned separately by the core test suite. The
// cmd-level twin of BenchmarkMatchPruned / BenchmarkMatchExhaustive.
func measureScore() scoreTiming {
	ctx := context.Background()
	dcfg := synth.DefaultDumpScale()
	c := synth.DumpScale(dcfg)
	tps := core.MatchEntityTypes(c, wiki.PtEn)
	if len(tps) != 1 {
		fmt.Fprintf(os.Stderr, "score: dump-scale fixture has %d type pairs, want 1\n", len(tps))
		os.Exit(1)
	}
	d := dict.Build(c, wiki.Portuguese, wiki.English)
	prunedCfg := core.DefaultConfig()
	prunedCfg.DisableRevise = true
	exCfg := prunedCfg
	exCfg.Exhaustive = true
	mp := core.NewMatcher(prunedCfg)
	me := core.NewMatcher(exCfg)
	art, err := mp.BuildTypeArtifacts(ctx, c, wiki.PtEn, tps[0][0], tps[0][1], d)
	if err != nil {
		fmt.Fprintln(os.Stderr, "score artifacts:", err)
		os.Exit(1)
	}
	match := func(m *core.Matcher) *core.TypeResult {
		tr, err := m.MatchTypeCtx(ctx, c, wiki.PtEn, tps[0][0], tps[0][1], d, art)
		if err != nil {
			fmt.Fprintln(os.Stderr, "score match:", err)
			os.Exit(1)
		}
		return tr
	}
	tr := match(mp) // warm: lazy kernel, quantization and scratch
	match(me)
	pruned := timeIt(func() { match(mp) })
	ex := timeIt(func() { match(me) })
	return scoreTiming{
		Attrs: len(art.TD.Attrs), Boxes: dcfg.Boxes,
		Queue: len(tr.Candidates), Matches: len(tr.Matches.Components()),
		PrunedNS: int64(pruned), ExhaustiveNS: int64(ex),
		Speedup: float64(ex) / float64(pruned),
	}
}

func renderScoreTimings(st scoreTiming) {
	fmt.Printf("score: dump-scale fixture, %d attrs over %d boxes, queue %d, %d match components\n",
		st.Attrs, st.Boxes, st.Queue, st.Matches)
	fmt.Printf("%-22s %12s\n", "path", "time")
	fmt.Printf("%-22s %12s\n", "pruned (default)", time.Duration(st.PrunedNS).Round(time.Microsecond))
	fmt.Printf("%-22s %12s\n", "exhaustive reference", time.Duration(st.ExhaustiveNS).Round(time.Microsecond))
	fmt.Printf("pruned vs exhaustive: %.1fx faster\n", st.Speedup)
}

// timeIt returns the best of three runs — enough to flatten scheduler
// noise without benchmark machinery.
func timeIt(fn func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		fn()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}
