package audit_test

import (
	"context"
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/multi"
	"repro/internal/synth"
	"repro/internal/wiki"
)

// corpusMatcher adapts a core.Matcher over a fixed corpus to the
// multi.PairMatcher interface the batch runner wants.
type corpusMatcher struct {
	c *wiki.Corpus
	m *core.Matcher
}

func (cm corpusMatcher) Match(ctx context.Context, pair wiki.LanguagePair) (*core.Result, error) {
	return cm.m.MatchCtx(ctx, cm.c, pair, nil)
}

// buildClusters runs the full pivot-mode batch match over the corpus and
// assembles correspondence clusters.
func buildClusters(t *testing.T, c *wiki.Corpus) []multi.Cluster {
	t.Helper()
	cm := corpusMatcher{c: c, m: core.NewMatcher(core.DefaultConfig())}
	batch, err := multi.Run(context.Background(), cm, c.Languages(), multi.Options{Mode: multi.ModePivot})
	if err != nil {
		t.Fatalf("multi.Run: %v", err)
	}
	return multi.BuildClusters(batch.Plan, batch.Outcomes)
}

// TestAuditDetectsInjectedInconsistencies is the subsystem's acceptance
// bar: on a synthetic corpus with a known injection ledger, the detector
// must reach 0.85 precision and 0.90 recall.
func TestAuditDetectsInjectedInconsistencies(t *testing.T) {
	if testing.Short() {
		t.Skip("full pivot match in -short mode")
	}
	corpus, truth, err := synth.Generate(synth.AuditEvalConfig())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(truth.Injected) == 0 {
		t.Fatal("AuditEvalConfig produced no injections")
	}
	clusters := buildClusters(t, corpus)
	report := audit.Run(corpus, clusters, audit.Options{})
	if report.Entities == 0 || report.Compared == 0 {
		t.Fatalf("degenerate report: %+v", report)
	}

	const minSeverity = 0.5
	res := audit.Evaluate(report.Findings, truth, minSeverity)
	t.Logf("injected=%d findings=%d TP=%d FP=%d missed=%d precision=%.3f recall=%.3f",
		len(truth.Injected), len(report.Findings), res.TP, res.FP, res.Missed, res.Precision, res.Recall)
	if res.Precision < 0.85 {
		t.Errorf("precision = %.3f, want >= 0.85", res.Precision)
	}
	if res.Recall < 0.90 {
		t.Errorf("recall = %.3f, want >= 0.90", res.Recall)
	}
}

// TestAuditCleanCorpusQuiet: with no noise and no injections, no
// high-severity value disagreements should survive.
func TestAuditCleanCorpusQuiet(t *testing.T) {
	if testing.Short() {
		t.Skip("full pivot match in -short mode")
	}
	cfg := synth.AuditEvalConfig()
	cfg.InjectNumberProb = 0
	cfg.InjectDateProb = 0
	cfg.InjectUnitProb = 0
	cfg.InjectDropProb = 0
	corpus, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	clusters := buildClusters(t, corpus)
	report := audit.Run(corpus, clusters, audit.Options{MinSeverity: 0.5})
	for _, f := range report.Findings {
		if f.Kind != audit.Missing {
			t.Errorf("clean corpus produced %s finding (severity %.2f): %s", f.Kind, f.Severity, f.Detail)
		}
	}
}

func TestAuditDeterministic(t *testing.T) {
	corpus, _, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	clusters := buildClusters(t, corpus)
	a := audit.Run(corpus, clusters, audit.Options{})
	b := audit.Run(corpus, clusters, audit.Options{})
	if len(a.Findings) != len(b.Findings) || a.Entities != b.Entities || a.Compared != b.Compared {
		t.Fatalf("nondeterministic report: %d/%d vs %d/%d", a.Entities, len(a.Findings), b.Entities, len(b.Findings))
	}
	for i := range a.Findings {
		x, y := a.Findings[i], b.Findings[i]
		if x.Entity != y.Entity || x.Cluster != y.Cluster || x.Kind != y.Kind || x.Severity != y.Severity {
			t.Fatalf("finding %d differs: %+v vs %+v", i, x, y)
		}
	}
}

func TestAuditOptions(t *testing.T) {
	corpus, _, err := synth.Generate(synth.AuditEvalConfig())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	clusters := buildClusters(t, corpus)
	full := audit.Run(corpus, clusters, audit.Options{})
	limited := audit.Run(corpus, clusters, audit.Options{Limit: 3})
	if len(limited.Findings) > 3 {
		t.Errorf("limit ignored: %d findings", len(limited.Findings))
	}
	gated := audit.Run(corpus, clusters, audit.Options{MinSeverity: 0.9})
	for _, f := range gated.Findings {
		if f.Severity < 0.9 {
			t.Errorf("severity gate ignored: %.3f", f.Severity)
		}
	}
	// Ranking: severity non-increasing.
	for i := 1; i < len(full.Findings); i++ {
		if full.Findings[i].Severity > full.Findings[i-1].Severity {
			t.Errorf("findings not ranked at %d", i)
		}
	}
}
