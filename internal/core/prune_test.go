package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dict"
	"repro/internal/synth"
	"repro/internal/wiki"
)

// exact returns cfg with the exhaustive reference path forced on.
func exact(cfg Config) Config {
	cfg.Exhaustive = true
	return cfg
}

// requireSameTypeResult asserts the pruned and exhaustive paths produced
// byte-identical alignments: the same queue (contents, scores, order),
// the same match components, and the same derived correspondences.
func requireSameTypeResult(t *testing.T, label string, pruned, ex *TypeResult) {
	t.Helper()
	if !reflect.DeepEqual(pruned.Candidates, ex.Candidates) {
		t.Fatalf("%s: queues differ: pruned %d candidates, exhaustive %d",
			label, len(pruned.Candidates), len(ex.Candidates))
	}
	if !reflect.DeepEqual(pruned.Matches.Components(), ex.Matches.Components()) {
		t.Fatalf("%s: match components differ", label)
	}
	if !reflect.DeepEqual(pruned.Cross, ex.Cross) {
		t.Fatalf("%s: correspondence sets differ", label)
	}
}

func requireSameResult(t *testing.T, label string, pruned, ex *Result) {
	t.Helper()
	if !reflect.DeepEqual(pruned.Types, ex.Types) {
		t.Fatalf("%s: type alignments differ", label)
	}
	for _, tp := range ex.Types {
		requireSameTypeResult(t, label+"/"+tp[0], pruned.PerType[tp], ex.PerType[tp])
	}
}

// TestPrunedMatchesExhaustive runs the full pipeline over the standard
// synthetic corpus with pruning on (the default) and with the exhaustive
// reference, for both language pairs, and requires identical results.
func TestPrunedMatchesExhaustive(t *testing.T) {
	c, _ := corpus(t)
	for _, pair := range []wiki.LanguagePair{wiki.PtEn, wiki.VnEn} {
		pruned := NewMatcher(DefaultConfig()).Match(c, pair)
		ex := NewMatcher(exact(DefaultConfig())).Match(c, pair)
		requireSameResult(t, pair.String(), pruned, ex)
	}
}

// TestPrunedMatchesExhaustiveSeeds repeats the equivalence check on
// freshly generated corpora with different seeds, so the property is not
// an accident of the shared fixture.
func TestPrunedMatchesExhaustiveSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed equivalence sweep")
	}
	for _, seed := range []int64{11, 23} {
		cfg := synth.SmallConfig()
		cfg.Seed = seed
		c, _, err := synth.Generate(cfg)
		if err != nil {
			t.Fatalf("Generate(seed=%d): %v", seed, err)
		}
		pruned := NewMatcher(DefaultConfig()).Match(c, wiki.PtEn)
		ex := NewMatcher(exact(DefaultConfig())).Match(c, wiki.PtEn)
		requireSameResult(t, "seed", pruned, ex)
	}
}

// TestPrunedSweep quick-checks the equivalence across queue thresholds
// on one type, and asserts the survivors never drop a queue pair — in
// particular their recall of gold matches that exhaustive scoring
// queues is exactly 1.0.
func TestPrunedSweep(t *testing.T) {
	c, truth := corpus(t)
	pair := wiki.PtEn
	var typeA, typeB string
	for _, tp := range MatchEntityTypes(c, pair) {
		if tp[0] == "filme" {
			typeA, typeB = tp[0], tp[1]
		}
	}
	if typeA == "" {
		t.Fatal("no film type pair")
	}
	canon, ok := truth.CanonType(pair.A, typeA)
	if !ok {
		t.Fatalf("no canonical type for %q", typeA)
	}
	tt := truth.Types[canon]
	d := dict.Build(c, pair.A, pair.B)
	ctx := context.Background()
	art, err := NewMatcher(DefaultConfig()).BuildTypeArtifacts(ctx, c, pair, typeA, typeB, d)
	if err != nil {
		t.Fatalf("BuildTypeArtifacts: %v", err)
	}
	sc := new(matchScratch)
	for _, tlsi := range []float64{0, 0.05, 0.1, 0.35, 0.7} {
		cfg := DefaultConfig()
		cfg.TLSI = tlsi
		if !cfg.usePruned(len(art.TD.Attrs)) {
			t.Fatalf("tlsi=%v unexpectedly exhaustive", tlsi)
		}
		pruned, err := NewMatcher(cfg).MatchTypeCtx(ctx, c, pair, typeA, typeB, d, art)
		if err != nil {
			t.Fatalf("pruned MatchTypeCtx: %v", err)
		}
		ex, err := NewMatcher(exact(cfg)).MatchTypeCtx(ctx, c, pair, typeA, typeB, d, art)
		if err != nil {
			t.Fatalf("exhaustive MatchTypeCtx: %v", err)
		}
		label := fmt.Sprintf("tlsi=%v", tlsi)
		requireSameTypeResult(t, label, pruned, ex)

		// The survivors must contain every exhaustive queue pair.
		if err := scorePrunedInto(ctx, art.TD, art.LSI, cfg, sc); err != nil {
			t.Fatalf("scorePrunedInto: %v", err)
		}
		survivors := make(map[uint32]bool, len(sc.surv))
		for _, packed := range sc.surv {
			survivors[packed] = true
		}
		goldQueued, goldKept := 0, 0
		for _, cand := range ex.Candidates {
			packed := uint32(cand.I)<<16 | uint32(cand.J)
			if !survivors[packed] {
				t.Fatalf("%s: queue pair (%d,%d) missing from survivors", label, cand.I, cand.J)
			}
			ai, aj := art.TD.Attrs[cand.I], art.TD.Attrs[cand.J]
			if ai.Lang != aj.Lang && tt.Correct(ai.Lang, ai.Name, aj.Lang, aj.Name) {
				goldQueued++
				goldKept++
			}
		}
		if goldQueued > 0 && goldKept != goldQueued {
			t.Fatalf("%s: gold recall %d/%d", label, goldKept, goldQueued)
		}
		if tlsi <= 0.1 && goldQueued == 0 {
			t.Fatalf("%s: no gold pairs in queue — fixture too weak to test recall", label)
		}
	}
}

// dumpScaleCase builds the shared dump-scale fixture artifacts once.
func dumpScaleCase(t testing.TB, cfg synth.DumpScaleConfig) (*wiki.Corpus, string, string, *dict.Dictionary, *TypeArtifacts) {
	t.Helper()
	c := synth.DumpScale(cfg)
	tps := MatchEntityTypes(c, wiki.PtEn)
	if len(tps) != 1 || tps[0] != [2]string{"registro", "record"} {
		t.Fatalf("dump-scale type pairs = %v", tps)
	}
	d := dict.Build(c, wiki.Portuguese, wiki.English)
	art, err := NewMatcher(DefaultConfig()).BuildTypeArtifacts(
		context.Background(), c, wiki.PtEn, tps[0][0], tps[0][1], d)
	if err != nil {
		t.Fatalf("BuildTypeArtifacts: %v", err)
	}
	return c, tps[0][0], tps[0][1], d, art
}

// TestPrunedDumpScaleEquivalence pins the byte-identity claim at the
// scale the benchmarks run at: one entity type with hundreds of
// attributes, where pruning actually earns its keep.
func TestPrunedDumpScaleEquivalence(t *testing.T) {
	cfg := synth.DumpScaleConfig{Attrs: 60, Boxes: 250, PerBox: 12, Values: 120, Seed: 5}
	c, typeA, typeB, d, art := dumpScaleCase(t, cfg)
	ctx := context.Background()
	pruned, err := NewMatcher(DefaultConfig()).MatchTypeCtx(ctx, c, wiki.PtEn, typeA, typeB, d, art)
	if err != nil {
		t.Fatalf("pruned: %v", err)
	}
	ex, err := NewMatcher(exact(DefaultConfig())).MatchTypeCtx(ctx, c, wiki.PtEn, typeA, typeB, d, art)
	if err != nil {
		t.Fatalf("exhaustive: %v", err)
	}
	requireSameTypeResult(t, "dump-scale", pruned, ex)
	if len(ex.Candidates) == 0 || len(ex.Cross) == 0 {
		t.Fatalf("dump-scale fixture degenerate: %d candidates, %d correspondences",
			len(ex.Candidates), len(ex.Cross))
	}
}

// TestScorePrunedZeroAllocs pins the warm-path allocation contract: with
// a retained scratch whose capacity already fits the type, the bound
// pass plus exact rescoring performs zero heap allocations.
func TestScorePrunedZeroAllocs(t *testing.T) {
	c, _ := corpus(t)
	pair := wiki.PtEn
	tps := MatchEntityTypes(c, pair)
	d := dict.Build(c, pair.A, pair.B)
	cfg := DefaultConfig()
	art, err := NewMatcher(cfg).BuildTypeArtifacts(context.Background(), c, pair, tps[0][0], tps[0][1], d)
	if err != nil {
		t.Fatalf("BuildTypeArtifacts: %v", err)
	}
	ctx := context.Background()
	sc := new(matchScratch)
	// Warm: size the scratch and build the lazy kernel/quantization.
	if err := scorePrunedInto(ctx, art.TD, art.LSI, cfg, sc); err != nil {
		t.Fatalf("warm scorePrunedInto: %v", err)
	}
	if len(sc.surv) >= minParallelRescore {
		t.Fatalf("fixture has %d survivors; need < %d for the serial path",
			len(sc.surv), minParallelRescore)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := scorePrunedInto(ctx, art.TD, art.LSI, cfg, sc); err != nil {
			t.Errorf("scorePrunedInto: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm scorePrunedInto allocates %v times per run, want 0", allocs)
	}
}

// BenchmarkMatchPruned and BenchmarkMatchExhaustive measure the scoring
// stage at dump scale on warm artifacts — the pair the CI bench gate
// compares. ReportAllocs keeps the warm-path allocation count visible.
func BenchmarkMatchPruned(b *testing.B)     { benchMatch(b, DefaultConfig()) }
func BenchmarkMatchExhaustive(b *testing.B) { benchMatch(b, exact(DefaultConfig())) }

func benchMatch(b *testing.B, cfg Config) {
	c, typeA, typeB, d, art := dumpScaleCase(b, synth.DefaultDumpScale())
	m := NewMatcher(cfg)
	ctx := context.Background()
	if _, err := m.MatchTypeCtx(ctx, c, wiki.PtEn, typeA, typeB, d, art); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.MatchTypeCtx(ctx, c, wiki.PtEn, typeA, typeB, d, art); err != nil {
			b.Fatal(err)
		}
	}
}
