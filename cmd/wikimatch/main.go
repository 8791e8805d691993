// Command wikimatch runs the WikiMatch aligner end to end: it generates
// (or loads) a multilingual corpus, matches entity types and attributes
// across a language pair, and prints the derived correspondences with
// their evaluation against the ground truth. The -stream flag prints
// per-type results as they complete instead of waiting for the whole
// pair.
//
// All matching goes through wire protocol v1 (one typed MatchRequest
// per run). By default the request is served in process; with -remote
// the same request is sent to a running wikimatchd, so the CLI becomes
// a thin protocol client that reuses the daemon's warm artifact cache
// instead of rebuilding dictionaries and LSI models locally. The output
// is identical either way (the daemon must serve the same corpus, i.e.
// the same -scale or -dumps).
//
// The matchall subcommand runs the all-pairs multilingual batch: every
// language pair of the corpus is matched (pivot mode through a hub
// edition by default, or direct all-pairs with -mode direct) and the
// pairwise correspondences are merged into cross-language attribute
// clusters, with transitive Pt–Vi-style derivations, agreement scores
// and conflict reports — evaluated against the generator's gold data
// when the corpus is synthetic. It honours -remote too.
//
// The audit subcommand runs the batch and then compares every
// cross-linked entity's values across the matched attribute clusters,
// printing a ranked inconsistency report (missing values, numeric
// drift, unit mismatches, outright contradictions) with
// confidence-weighted severities. It honours -remote too.
//
// The ingest subcommand streams real dump files — DBpedia
// infobox-properties and interlanguage-links TTL and MediaWiki XML,
// transparently gzip/bzip2-compressed — into a corpus and prints the
// per-edition statistics report with a structured skip-reason summary.
// The language set is entirely data-driven: whatever editions the dump
// directory holds become the corpus. The same ingestion runs implicitly
// wherever -dumps is accepted. With -dry-run it only counts; with
// -store it writes a session snapshot wikimatchd can warm-start from.
//
// The precompute subcommand is the offline half of the offline/online
// split: it builds every artifact for the requested language pairs and
// writes them as one atomic snapshot file that `wikimatchd -store`
// warm-starts from.
//
// Usage:
//
//	wikimatch [-pair pt-en|zh-min-nan:en] [-type filme] [-scale small|full]
//	          [-dumps dir]     ingest dumps (TTL/XML, .gz/.bz2) instead of generating
//	          [-remote URL]    drive a running wikimatchd over protocol v1
//	          [-tsim 0.6] [-tlsi 0.1] [-stream]
//
//	wikimatch matchall [-mode pivot|direct] [-hub LANG] [-workers N]
//	          [-scale small|full] [-dumps dir] [-store out.wmsnap]
//	          [-remote URL] [-timings=false]
//	          [-clusters] [-tsim 0.6] [-tlsi 0.1]
//
//	wikimatch audit [-mode pivot|direct] [-hub LANG] [-workers N]
//	          [-pair pt-en] [-min-severity 0.5] [-limit 20]
//	          [-scale small|full] [-dumps dir] [-remote URL] [-timings=false]
//
//	wikimatch ingest -dumps dir [-langs en,pt,...] [-workers N]
//	          [-dry-run] [-no-infer] [-progress] [-store corpus.wmsnap]
//
//	wikimatch precompute -store artifacts.wmsnap
//	          [-pairs pt-en,vi-en] [-scale small|full] [-dumps dir]
//	          [-tsim 0.6] [-tlsi 0.1]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro"
	"repro/internal/eval"
	"repro/internal/ingest"
	"repro/internal/synth"
	"repro/internal/wiki"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "precompute" {
		os.Exit(precompute(os.Args[2:], os.Stdout, os.Stderr))
	}
	if len(os.Args) > 1 && os.Args[1] == "matchall" {
		os.Exit(matchallCmd(os.Args[2:], os.Stdout, os.Stderr))
	}
	if len(os.Args) > 1 && os.Args[1] == "audit" {
		os.Exit(auditCmd(os.Args[2:], os.Stdout, os.Stderr))
	}
	if len(os.Args) > 1 && os.Args[1] == "ingest" {
		os.Exit(ingestCmd(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(matchCmd(os.Args[1:], os.Stdout, os.Stderr))
}

// matchCmd is the default pairwise subcommand.
func matchCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wikimatch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	pairFlag := fs.String("pair", "pt-en", "language pair, e.g. pt-en (colon form for hyphenated codes: zh-min-nan:en)")
	typeFlag := fs.String("type", "", "match only one source-language type (single-type request)")
	scale := fs.String("scale", "small", "generated corpus scale: small or full")
	dumpsDir := fs.String("dumps", "", "directory with dumps to ingest (DBpedia <lang>-*.ttl[.gz|.bz2], MediaWiki <lang>.xml) instead of generating")
	remote := fs.String("remote", "", "wikimatchd base URL; match there instead of in process")
	tsim := fs.Float64("tsim", 0.6, "certain-match threshold Tsim")
	tlsi := fs.Float64("tlsi", 0.1, "correlation threshold TLSI")
	stream := fs.Bool("stream", false, "print per-type results as each type completes")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *stream && *typeFlag != "" {
		fmt.Fprintln(stderr, "wikimatch: -stream cannot be combined with -type (single-type requests cannot stream)")
		return 2
	}
	req := repro.MatchRequest{Pair: *pairFlag, Type: *typeFlag}
	setMatchOverrides(fs, &req, tsim, tlsi)
	if _, err := repro.ParseLanguagePair(*pairFlag); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	corpus, truth, err := loadCorpus(stdout, *dumpsDir, *scale)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	backend, err := newBackend(*remote, corpus)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	stats := corpus.Stats()
	fmt.Fprintf(stdout, "corpus: %v articles, %v infoboxes, %v cross pairs\n\n",
		stats.Articles, stats.Infoboxes, stats.CrossPairs)

	ctx := context.Background()
	if *stream {
		lines, err := backend.Stream(ctx, req)
		if err != nil {
			fmt.Fprintln(stderr, "stream:", err)
			return 1
		}
		defer lines.Close()
		for lines.Next() {
			line := lines.Line()
			if line.Error != nil {
				fmt.Fprintln(stderr, "stream:", line.Error)
				return 1
			}
			if line.Type != nil {
				printType(stdout, corpus, truth, line.Type, *pairFlag)
			}
		}
		if err := lines.Err(); err != nil {
			fmt.Fprintln(stderr, "stream:", err)
			return 1
		}
		return 0
	}

	resp, err := backend.Match(ctx, req)
	if err != nil {
		fmt.Fprintln(stderr, "match:", err)
		return 1
	}
	fmt.Fprintf(stdout, "matched entity types (%s):\n", resp.Pair)
	for _, tp := range resp.Types {
		fmt.Fprintf(stdout, "  %-28s ~ %s\n", tp[0], tp[1])
	}
	fmt.Fprintln(stdout)
	for i := range resp.Results {
		printType(stdout, corpus, truth, &resp.Results[i], resp.Pair)
	}
	return 0
}

// setMatchOverrides attaches -tsim/-tlsi as per-request
// overrides only when the user actually passed the flag: an untouched
// default must not silently override the configuration a remote daemon
// was started with.
func setMatchOverrides(fs *flag.FlagSet, req *repro.MatchRequest, tsim, tlsi *float64) {
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "tsim":
			req.TSim = tsim
		case "tlsi":
			req.TLSI = tlsi
		}
	})
}

// newBackend selects the in-process session or the remote protocol
// client.
func newBackend(remote string, corpus *repro.Corpus) (repro.Backend, error) {
	if remote == "" {
		return repro.NewLocalBackend(repro.NewSession(corpus)), nil
	}
	return repro.NewAPIClient(remote)
}

// loadCorpus ingests every recognized dump in the directory when one is
// given — DBpedia TTL and MediaWiki XML, any language set, transparently
// compressed — otherwise generates the synthetic corpus (with its ground
// truth) at the requested scale.
func loadCorpus(w io.Writer, dumpsDir, scale string) (*wiki.Corpus, *synth.GroundTruth, error) {
	if dumpsDir != "" {
		res, err := ingest.Dir(context.Background(), dumpsDir, ingest.Options{})
		if err != nil {
			return nil, nil, err
		}
		tot := res.Totals()
		fmt.Fprintf(w, "ingested %s: %d editions %v, %d files, %d entities (%d skipped units)\n",
			dumpsDir, len(res.PerLang), res.Languages(), tot.Files, tot.Entities, tot.SkippedTotal())
		return res.Corpus, nil, nil
	}
	cfg := synth.SmallConfig()
	if scale == "full" {
		cfg = synth.DefaultConfig()
	}
	corpus, truth, err := synth.Generate(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("generate: %w", err)
	}
	return corpus, truth, nil
}

// ingestCmd is the standalone ingestion subcommand: it streams real (or
// corpusgen-fabricated) dump files into a corpus, prints the per-edition
// statistics report with structured skip reasons, and optionally writes
// a session snapshot for wikimatchd -store. With -dry-run it only counts
// — per-language triple/page/skip tallies, no corpus, no artifacts.
func ingestCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wikimatch ingest", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dumpsDir := fs.String("dumps", "", "directory with dump files (required): <lang>-infobox-properties*.ttl, <lang>-interlanguage-links*.ttl, <lang>.xml, each optionally .gz/.bz2")
	langsFlag := fs.String("langs", "", "comma-separated editions to ingest (default: every edition found)")
	workers := fs.Int("workers", 0, "editions ingesting concurrently (0 = one per edition)")
	dryRun := fs.Bool("dry-run", false, "parse and count only: no corpus, no artifacts")
	noInfer := fs.Bool("no-infer", false, "disable property-profile type inference for untyped entities")
	storePath := fs.String("store", "", "write a session snapshot stamped with the ingested corpus's fingerprint (wikimatchd -store warm-starts from it)")
	progress := fs.Bool("progress", false, "print one line per completed dump file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dumpsDir == "" {
		fmt.Fprintln(stderr, "wikimatch ingest: -dumps is required")
		return 2
	}
	if *dryRun && *storePath != "" {
		fmt.Fprintln(stderr, "wikimatch ingest: -dry-run builds no corpus to -store")
		return 2
	}
	var langs []wiki.Language
	for _, raw := range strings.Split(*langsFlag, ",") {
		if raw = strings.TrimSpace(raw); raw != "" {
			langs = append(langs, wiki.Language(raw))
		}
	}
	opts := ingest.Options{Languages: langs, Workers: *workers, DryRun: *dryRun, NoTypeInference: *noInfer}
	if *progress {
		opts.Progress = func(ev ingest.Progress) {
			fmt.Fprintf(stdout, "  %-10s %s (%s, %d bytes): %d triples, %d pages\n",
				ev.Lang, filepath.Base(ev.Path), ev.Format, ev.Bytes, ev.Triples, ev.Pages)
		}
	}
	res, err := ingest.Dir(context.Background(), *dumpsDir, opts)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	printIngestReport(stdout, res, *dryRun)
	if *storePath != "" {
		if err := repro.SaveSessionSnapshot(repro.NewSession(res.Corpus), *storePath); err != nil {
			fmt.Fprintln(stderr, "save snapshot:", err)
			return 1
		}
		info, err := os.Stat(*storePath)
		if err != nil {
			fmt.Fprintln(stderr, "stat snapshot:", err)
			return 1
		}
		fmt.Fprintf(stdout, "\nsnapshot %s: %d bytes (corpus fingerprint %x)\n",
			*storePath, info.Size(), res.Corpus.Fingerprint())
	}
	return 0
}

// printIngestReport renders the per-edition ingestion statistics with
// the structured skip-reason summary.
func printIngestReport(w io.Writer, res *ingest.Result, dryRun bool) {
	header := "ingested"
	if dryRun {
		header = "dry run over"
	}
	secs := res.Elapsed.Seconds()
	mbps := 0.0
	if secs > 0 {
		mbps = float64(res.Bytes) / (1 << 20) / secs
	}
	fmt.Fprintf(w, "%s %d editions, %d bytes in %v (%.1f MB/s)\n",
		header, len(res.PerLang), res.Bytes, res.Elapsed.Round(time.Millisecond), mbps)
	for _, lang := range res.Languages() {
		s := res.PerLang[lang]
		fmt.Fprintf(w, "  %-10s %2d files %9d bytes: %d triples (%d attr, %d type, %d template), %d links, %d pages",
			lang, s.Files, s.Bytes, s.Triples, s.AttrTriples, s.TypeTriples, s.TemplateTriples, s.CrossLinks, s.Pages)
		if !dryRun {
			fmt.Fprintf(w, " → %d entities, %d infoboxes (typed: %d template, %d ontology, %d profile)",
				s.Entities, s.Infoboxes, s.TypedByTemplate, s.TypedByOntology, s.TypedByProfile)
		}
		fmt.Fprintln(w)
	}
	tot := res.Totals()
	if tot.SkippedTotal() == 0 {
		fmt.Fprintln(w, "skipped: nothing")
		return
	}
	fmt.Fprintf(w, "skipped %d input units by reason:\n", tot.SkippedTotal())
	for _, reason := range tot.SkipReasons() {
		fmt.Fprintf(w, "  %-18s %d\n", reason, tot.Skipped[reason])
	}
}

// precompute is the offline artifact build: it warms a session for every
// requested language pair and writes the whole artifact cache as one
// snapshot that wikimatchd -store (or repro.RestoreSession) loads in
// milliseconds.
func precompute(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wikimatch precompute", flag.ContinueOnError)
	fs.SetOutput(stderr)
	storePath := fs.String("store", "artifacts.wmsnap", "snapshot file to write (atomic)")
	pairsFlag := fs.String("pairs", "pt-en,vi-en", "comma-separated language pairs to precompute")
	scale := fs.String("scale", "small", "generated corpus scale: small or full")
	dumpsDir := fs.String("dumps", "", "directory with dumps to ingest (DBpedia <lang>-*.ttl[.gz|.bz2], MediaWiki <lang>.xml) instead of generating")
	tsim := fs.Float64("tsim", 0.6, "certain-match threshold Tsim")
	tlsi := fs.Float64("tlsi", 0.1, "correlation threshold TLSI")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var pairs []wiki.LanguagePair
	for _, raw := range strings.Split(*pairsFlag, ",") {
		pair, err := repro.ParseLanguagePair(strings.TrimSpace(raw))
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		pairs = append(pairs, pair)
	}

	corpus, _, err := loadCorpus(stdout, *dumpsDir, *scale)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	session := repro.NewSession(corpus, repro.WithTSim(*tsim), repro.WithTLSI(*tlsi))
	ctx := context.Background()
	for _, pair := range pairs {
		start := time.Now()
		res, err := session.Match(ctx, pair)
		if err != nil {
			fmt.Fprintf(stderr, "precompute %s: %v\n", pair, err)
			return 1
		}
		fmt.Fprintf(stdout, "built %s: %d types in %v\n", pair, len(res.Types), time.Since(start).Round(time.Millisecond))
	}
	start := time.Now()
	if err := repro.SaveSessionSnapshot(session, *storePath); err != nil {
		fmt.Fprintln(stderr, "save snapshot:", err)
		return 1
	}
	info, err := os.Stat(*storePath)
	if err != nil {
		fmt.Fprintln(stderr, "stat snapshot:", err)
		return 1
	}
	cs := session.CacheStats()
	fmt.Fprintf(stdout, "snapshot %s: %d pairs, %d types, %d bytes, written in %v\n",
		*storePath, cs.PairEntries, cs.TypeEntries, info.Size(), time.Since(start).Round(time.Millisecond))
	return 0
}

// matchallCmd runs the all-pairs multilingual batch and prints the
// derived cross-language correspondence clusters, streaming per-pair
// progress as pairs finish. With -store (in-process only), the batch's
// whole artifact cache is flushed as a snapshot afterwards.
func matchallCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wikimatch matchall", flag.ContinueOnError)
	fs.SetOutput(stderr)
	modeFlag := fs.String("mode", "pivot", "pair coverage: pivot (through -hub) or direct (all pairs)")
	hubFlag := fs.String("hub", "", "pivot hub language edition (default: English if present, else first)")
	workers := fs.Int("workers", 0, "concurrent pairs (0 = GOMAXPROCS)")
	scale := fs.String("scale", "small", "generated corpus scale: small or full")
	dumpsDir := fs.String("dumps", "", "directory with dumps to ingest (DBpedia <lang>-*.ttl[.gz|.bz2], MediaWiki <lang>.xml) instead of generating")
	remote := fs.String("remote", "", "wikimatchd base URL; run the batch there instead of in process")
	storePath := fs.String("store", "", "write the batch's artifact snapshot here afterwards (in-process only)")
	clusters := fs.Bool("clusters", false, "print every cluster, not just the summary and samples")
	timings := fs.Bool("timings", true, "print per-pair and total elapsed times")
	tsim := fs.Float64("tsim", 0.6, "certain-match threshold Tsim")
	tlsi := fs.Float64("tlsi", 0.1, "correlation threshold TLSI")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *remote != "" && *storePath != "" {
		fmt.Fprintln(stderr, "matchall: -store is not supported with -remote (the artifacts live in the daemon)")
		return 2
	}

	corpus, truth, err := loadCorpus(stdout, *dumpsDir, *scale)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "corpus languages: %v\n", corpus.Languages())

	var session *repro.Session
	var backend repro.Backend
	if *remote == "" {
		session = repro.NewSession(corpus)
		backend = repro.NewLocalBackend(session)
	} else if backend, err = repro.NewAPIClient(*remote); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	req := repro.MatchRequest{All: true, Mode: *modeFlag, Hub: *hubFlag, Workers: *workers}
	setMatchOverrides(fs, &req, tsim, tlsi)
	lines, err := backend.Stream(context.Background(), req)
	if err != nil {
		fmt.Fprintln(stderr, "matchall:", err)
		return 1
	}
	defer lines.Close()
	var batch *repro.MatchAllResponse
	for lines.Next() {
		line := lines.Line()
		if o := line.Pair; o != nil {
			if o.Error != "" {
				fmt.Fprintf(stdout, "[%d/%d] %-8s FAILED: %v\n", line.Done, line.Total, o.Pair, o.Error)
				continue
			}
			if *timings {
				fmt.Fprintf(stdout, "[%d/%d] %-8s %3d types %5d correspondences  %v\n",
					line.Done, line.Total, o.Pair, o.Types, o.Correspondences,
					(time.Duration(o.ElapsedMS * float64(time.Millisecond))).Round(time.Millisecond))
			} else {
				fmt.Fprintf(stdout, "[%d/%d] %-8s %3d types %5d correspondences\n",
					line.Done, line.Total, o.Pair, o.Types, o.Correspondences)
			}
		}
		if line.FinalAll != nil {
			batch = line.FinalAll
		}
	}
	if err := lines.Err(); err != nil {
		fmt.Fprintln(stderr, "matchall:", err)
		return 1
	}
	if batch == nil {
		fmt.Fprintln(stderr, "matchall: no result")
		return 1
	}

	if err := printBatch(stdout, batch, *clusters, *timings); err != nil {
		fmt.Fprintln(stderr, "matchall:", err)
		return 1
	}
	if truth != nil {
		if err := evalBatch(stdout, corpus, truth, batch); err != nil {
			fmt.Fprintln(stderr, "matchall:", err)
			return 1
		}
	}

	if *storePath != "" {
		if err := repro.SaveSessionSnapshot(session, *storePath); err != nil {
			fmt.Fprintln(stderr, "save snapshot:", err)
			return 1
		}
		cs := session.CacheStats()
		fmt.Fprintf(stdout, "\nsnapshot %s: %d pairs, %d types\n", *storePath, cs.PairEntries, cs.TypeEntries)
	}
	return 0
}

// auditCmd audits cross-edition value consistency: it streams the
// all-pairs matching phase like matchall, then prints the ranked
// inconsistency findings as the comparison emits them, closing with the
// report summary. With -remote the audit runs in the daemon over its
// warm artifact cache; the printed report is identical either way.
func auditCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wikimatch audit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	modeFlag := fs.String("mode", "pivot", "pair coverage for the matching phase: pivot (through -hub) or direct")
	hubFlag := fs.String("hub", "", "pivot hub language edition (default: English if present, else first)")
	workers := fs.Int("workers", 0, "concurrent pairs in the matching phase (0 = GOMAXPROCS)")
	scale := fs.String("scale", "small", "generated corpus scale: small or full")
	dumpsDir := fs.String("dumps", "", "directory with dumps to ingest (DBpedia <lang>-*.ttl[.gz|.bz2], MediaWiki <lang>.xml) instead of generating")
	remote := fs.String("remote", "", "wikimatchd base URL; audit there instead of in process")
	pairFlag := fs.String("pair", "", "restrict findings to one language pair (e.g. pt-en or zh-min-nan:en)")
	minSeverity := fs.Float64("min-severity", 0, "drop findings scoring below this severity (0..1)")
	limit := fs.Int("limit", 20, "cap the ranked findings (0 = unlimited)")
	timings := fs.Bool("timings", true, "print per-pair and total elapsed times")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	corpus, _, err := loadCorpus(stdout, *dumpsDir, *scale)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	backend, err := newBackend(*remote, corpus)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fmt.Fprintf(stdout, "corpus languages: %v\n", corpus.Languages())

	req := repro.AuditRequest{
		Mode: *modeFlag, Hub: *hubFlag, Workers: *workers,
		Pair: *pairFlag, MinSeverity: *minSeverity, Limit: *limit,
	}
	lines, err := backend.AuditStream(context.Background(), req)
	if err != nil {
		fmt.Fprintln(stderr, "audit:", err)
		return 1
	}
	defer lines.Close()
	var final *repro.AuditResponse
	headed := false
	for lines.Next() {
		line := lines.Line()
		if line.Error != nil {
			fmt.Fprintln(stderr, "audit:", line.Error)
			return 1
		}
		if o := line.Pair; o != nil {
			if o.Error != "" {
				fmt.Fprintf(stdout, "[%d/%d] %-8s FAILED: %v\n", line.Done, line.Total, o.Pair, o.Error)
				continue
			}
			if *timings {
				fmt.Fprintf(stdout, "[%d/%d] %-8s %3d types %5d correspondences  %v\n",
					line.Done, line.Total, o.Pair, o.Types, o.Correspondences,
					(time.Duration(o.ElapsedMS * float64(time.Millisecond))).Round(time.Millisecond))
			} else {
				fmt.Fprintf(stdout, "[%d/%d] %-8s %3d types %5d correspondences\n",
					line.Done, line.Total, o.Pair, o.Types, o.Correspondences)
			}
		}
		if f := line.Finding; f != nil {
			if !headed {
				fmt.Fprintf(stdout, "\nranked findings:\n")
				headed = true
			}
			printFinding(stdout, line.Done, f)
		}
		if line.FinalAudit != nil {
			final = line.FinalAudit
		}
	}
	if err := lines.Err(); err != nil {
		fmt.Fprintln(stderr, "audit:", err)
		return 1
	}
	if final == nil {
		fmt.Fprintln(stderr, "audit: no result")
		return 1
	}
	fmt.Fprintf(stdout, "\naudited %d entities over %d clusters: %d value comparisons, %d findings",
		final.Entities, final.Clusters, final.Compared, len(final.Findings))
	if *timings {
		fmt.Fprintf(stdout, ", %v", (time.Duration(final.ElapsedMS * float64(time.Millisecond))).Round(time.Millisecond))
	}
	fmt.Fprintln(stdout)
	return 0
}

// printFinding renders one ranked inconsistency with its per-edition
// observations.
func printFinding(w io.Writer, rank int, f *repro.AuditFindingJSON) {
	fmt.Fprintf(w, "%3d. [%.3f] %-14s %s (cluster %d)\n", rank, f.Severity, f.Kind, f.Entity, f.Cluster)
	for _, v := range f.Values {
		norm := ""
		if v.Norm != "" && v.Norm != v.Raw {
			norm = fmt.Sprintf("  → %s", v.Norm)
		}
		fmt.Fprintf(w, "       %s %s = %q%s\n", v.Lang, v.Attr, v.Raw, norm)
	}
}

// printBatch summarizes the clusters: counts by language span, conflict
// totals, and (a sample of) the multilingual clusters themselves.
func printBatch(w io.Writer, batch *repro.MatchAllResponse, all, timings bool) error {
	plan, err := batch.Plan()
	if err != nil {
		return err
	}
	spanCount := map[int]int{}
	derived := 0
	for _, cl := range batch.Clusters {
		spanCount[len(cl.Languages)]++
		for _, corr := range cl.Correspondences {
			if !corr.Direct {
				derived++
			}
		}
	}
	spans := make([]int, 0, len(spanCount))
	for span := range spanCount {
		spans = append(spans, span)
	}
	sort.Ints(spans)
	fmt.Fprintf(w, "\nplan %s → %d clusters (", plan, len(batch.Clusters))
	for i, span := range spans {
		if i > 0 {
			fmt.Fprint(w, ", ")
		}
		fmt.Fprintf(w, "%d spanning %d languages", spanCount[span], span)
	}
	fmt.Fprintf(w, "), %d transitive correspondences, %d conflicts", derived, batch.Conflicts)
	if timings {
		fmt.Fprintf(w, ", %v", (time.Duration(batch.ElapsedMS * float64(time.Millisecond))).Round(time.Millisecond))
	}
	fmt.Fprint(w, "\n\n")

	shown := 0
	for _, cl := range batch.Clusters {
		if !all && (len(cl.Languages) < 3 || shown >= 8) {
			continue
		}
		shown++
		fmt.Fprintf(w, "cluster %d (agreement %.2f):\n", cl.ID, cl.Agreement)
		for _, m := range cl.Members {
			fmt.Fprintf(w, "  %s\n", m)
		}
		for _, corr := range cl.Correspondences {
			if !corr.Direct {
				fmt.Fprintf(w, "  ↯ %s ~ %s (transitive, confidence %.2f)\n", corr.A, corr.B, corr.Confidence)
			}
		}
		for _, conflict := range cl.Conflicts {
			fmt.Fprintf(w, "  ✗ %s ~ %s implied via %s but directly rejected\n", conflict.A, conflict.B, conflict.Via)
		}
	}
	if !all && shown > 0 {
		fmt.Fprintf(w, "(showing %d multilingual clusters; -clusters prints all %d)\n", shown, len(batch.Clusters))
	}
	return nil
}

// evalBatch scores the batch's induced per-pair correspondences —
// including purely transitive pairs — against the generator's gold data.
func evalBatch(w io.Writer, corpus *wiki.Corpus, truth *synth.GroundTruth, batch *repro.MatchAllResponse) error {
	plan, err := batch.Plan()
	if err != nil {
		return err
	}
	langs := map[wiki.Language]bool{}
	for _, pair := range plan.Pairs {
		langs[pair.A], langs[pair.B] = true, true
	}
	var all []wiki.Language
	for l := range langs {
		all = append(all, l)
	}
	fmt.Fprintf(w, "\ncluster-induced correspondences vs gold (macro):\n")
	for _, pair := range wiki.AllPairs(all, plan.Hub) {
		induced := batch.Induced(pair)
		var rows []eval.PRF
		for tp, derivedSet := range induced {
			canon, ok := truth.CanonType(pair.A, tp[0])
			if !ok {
				continue
			}
			tt := truth.Types[canon]
			freqA := eval.LanguageAttributeFrequencies(corpus, pair.A, tp[0])
			freqB := eval.LanguageAttributeFrequencies(corpus, pair.B, tp[1])
			gold := eval.TruthPairs(freqA, freqB, pair, tt.Correct)
			if gold.Pairs() == 0 {
				continue
			}
			rows = append(rows, eval.Macro(derivedSet, gold))
		}
		if len(rows) == 0 {
			fmt.Fprintf(w, "  %-8s (nothing to score)\n", pair)
			continue
		}
		avg := eval.Average(rows)
		tag := ""
		if !plan.Contains(pair.A, pair.B) {
			tag = "  (transitive only)"
		}
		fmt.Fprintf(w, "  %-8s P=%.3f R=%.3f F=%.3f over %d types%s\n",
			pair, avg.Precision, avg.Recall, avg.F, len(rows), tag)
	}
	return nil
}

// printType renders one type's correspondences and, when ground truth is
// available, its weighted scores. It works entirely from the wire DTO,
// so local and remote runs print byte-identical output.
func printType(w io.Writer, corpus *wiki.Corpus, truth *synth.GroundTruth, tr *repro.TypeMatchResultJSON, pairRaw string) {
	fmt.Fprintf(w, "== %s ~ %s\n", tr.TypeA, tr.TypeB)
	for _, c := range tr.Correspondences {
		fmt.Fprintf(w, "  %-30s ~ %s\n", c.A, c.B)
	}
	if truth != nil {
		pair, err := repro.ParseLanguagePair(pairRaw)
		if err == nil {
			if canon, ok := truth.CanonType(pair.A, tr.TypeA); ok {
				tt := truth.Types[canon]
				freqA, freqB := eval.AttributeFrequencies(corpus, pair, tr.TypeA, tr.TypeB)
				g := eval.TruthPairs(freqA, freqB, pair, tt.Correct)
				derived := make(eval.Correspondences)
				for _, c := range tr.Correspondences {
					derived.Add(c.A, c.B)
				}
				prf := eval.Weighted(derived, g, freqA, freqB)
				fmt.Fprintf(w, "  → weighted P=%.2f R=%.2f F=%.2f\n", prf.Precision, prf.Recall, prf.F)
			}
		}
	}
	fmt.Fprintln(w)
}
