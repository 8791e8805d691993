package lsi

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
	"repro/internal/synth"
	"repro/internal/text"
	"repro/internal/wiki"
)

func attr(lang wiki.Language, name string) Attr { return Attr{Lang: lang, Name: name} }

// paperDuals reproduces the flavor of Figure 2(a): English and Portuguese
// actor attributes over dual-language infoboxes, where born/nascimento and
// died/falecimento/morte track each other.
func paperDuals() []Dual {
	born := attr(wiki.English, "born")
	died := attr(wiki.English, "died")
	other := attr(wiki.English, "other names")
	nasc := attr(wiki.Portuguese, "nascimento")
	falec := attr(wiki.Portuguese, "falecimento")
	morte := attr(wiki.Portuguese, "morte")
	outros := attr(wiki.Portuguese, "outros nomes")
	return []Dual{
		{A: []Attr{born, other}, B: []Attr{nasc, outros}},
		{A: []Attr{died}, B: []Attr{falec}},
		{A: []Attr{born, died}, B: []Attr{nasc, morte}},
		{A: []Attr{died}, B: []Attr{falec}},
		{A: []Attr{born, other}, B: []Attr{nasc, outros}},
		{A: []Attr{born, died}, B: []Attr{nasc, falec}},
		{A: []Attr{born}, B: []Attr{nasc}},
		{A: []Attr{died, other}, B: []Attr{morte, outros}},
	}
}

func TestCrossLanguageSynonymsScoreHigh(t *testing.T) {
	m := Build(paperDuals(), 4)
	bornNasc := m.ScoreAttrs(attr(wiki.English, "born"), attr(wiki.Portuguese, "nascimento"))
	bornMorte := m.ScoreAttrs(attr(wiki.English, "born"), attr(wiki.Portuguese, "morte"))
	if bornNasc <= bornMorte {
		t.Errorf("LSI(born,nascimento)=%.3f should exceed LSI(born,morte)=%.3f", bornNasc, bornMorte)
	}
	if bornNasc < 0.5 {
		t.Errorf("LSI(born,nascimento)=%.3f, want high", bornNasc)
	}
	diedFalec := m.ScoreAttrs(attr(wiki.English, "died"), attr(wiki.Portuguese, "falecimento"))
	if diedFalec < 0.5 {
		t.Errorf("LSI(died,falecimento)=%.3f, want high", diedFalec)
	}
}

func TestSameLanguageCoOccurringScoreZero(t *testing.T) {
	m := Build(paperDuals(), 4)
	// born and died co-occur in English infoboxes → 0.
	if got := m.ScoreAttrs(attr(wiki.English, "born"), attr(wiki.English, "died")); got != 0 {
		t.Errorf("LSI(born,died) = %v, want 0", got)
	}
	// nascimento and morte co-occur in Portuguese → 0 (Example 2's gate).
	if got := m.ScoreAttrs(attr(wiki.Portuguese, "nascimento"), attr(wiki.Portuguese, "morte")); got != 0 {
		t.Errorf("LSI(nascimento,morte) = %v, want 0", got)
	}
}

func TestSameLanguageSynonymsComplementScore(t *testing.T) {
	// falecimento and morte never co-occur: their score is 1 − cosine,
	// and since they occupy complementary infobox sets the cosine is
	// small, so the score should be clearly positive.
	m := Build(paperDuals(), 4)
	got := m.ScoreAttrs(attr(wiki.Portuguese, "falecimento"), attr(wiki.Portuguese, "morte"))
	if got <= 0.1 {
		t.Errorf("LSI(falecimento,morte) = %v, want clearly positive", got)
	}
}

func TestSelfScoreZero(t *testing.T) {
	m := Build(paperDuals(), 4)
	if got := m.Score(0, 0); got != 0 {
		t.Errorf("self score = %v", got)
	}
}

func TestUnknownAttrScoresZero(t *testing.T) {
	m := Build(paperDuals(), 4)
	if got := m.ScoreAttrs(attr(wiki.English, "nope"), attr(wiki.Portuguese, "nascimento")); got != 0 {
		t.Errorf("unknown attr score = %v", got)
	}
}

func TestExtraAttrsGetZeroVectors(t *testing.T) {
	extra := attr(wiki.English, "website")
	m := Build(paperDuals(), 4, extra)
	if _, ok := m.Index[extra]; !ok {
		t.Fatal("extra attr not registered")
	}
	if got := m.ScoreAttrs(extra, attr(wiki.Portuguese, "nascimento")); got != 0 {
		t.Errorf("zero-row cross score = %v, want 0", got)
	}
}

func TestEmptyModel(t *testing.T) {
	m := Build(nil, 0)
	if m.Len() != 0 {
		t.Errorf("len = %d", m.Len())
	}
	m2 := Build(nil, 3, attr(wiki.English, "a"), attr(wiki.Portuguese, "b"))
	if got := m2.ScoreAttrs(attr(wiki.English, "a"), attr(wiki.Portuguese, "b")); got != 0 {
		t.Errorf("no-docs score = %v", got)
	}
}

// TestScoreBounds pins the property the pruned scorer in internal/core
// relies on: for every pair, ScoreBounds' hi is a certified upper bound
// of the exact Score, provably-zero pairs (identical indices,
// same-language co-occurrence) bound to (0, 0), and for cross-language
// pairs the estimate is within the quantization margin of the score. It
// runs on the paper's Figure 2 duals, one synthetic entity type, and a
// small dump-scale type that takes the randomized SVD path.
func TestScoreBounds(t *testing.T) {
	c, _, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	dump := synth.DumpScale(synth.DumpScaleConfig{Attrs: 60, Boxes: 250, PerBox: 12, Values: 120, Seed: 5})
	for _, tc := range []struct {
		name  string
		duals []Dual
		rank  int
	}{
		{"paper", paperDuals(), 4},
		{"synth filme", corpusDuals(c, wiki.PtEn, "filme"), DefaultRank},
		{"dump-scale", corpusDuals(dump, wiki.PtEn, "registro"), DefaultRank},
	} {
		m := Build(tc.duals, tc.rank)
		cross, vetoed := 0, 0
		for i := 0; i < m.Len(); i++ {
			for j := 0; j < m.Len(); j++ {
				s := m.Score(i, j)
				est, hi := m.ScoreBounds(i, j)
				ai, aj := m.Attrs[i], m.Attrs[j]
				if s < 0 || s > 1.0000001 {
					t.Fatalf("%s: Score(%v,%v) = %v out of range", tc.name, ai, aj, s)
				}
				if s > hi {
					t.Fatalf("%s: Score(%v,%v) = %v above its bound %v", tc.name, ai, aj, s, hi)
				}
				switch {
				case i == j || (ai.Lang == aj.Lang && m.CoOccur(i, j)):
					vetoed++
					if est != 0 || hi != 0 {
						t.Fatalf("%s: ScoreBounds(%v,%v) = (%v, %v), want (0, 0)", tc.name, ai, aj, est, hi)
					}
				case ai.Lang != aj.Lang:
					cross++
					if margin := m.Quantized().Margin(i, j); math.Abs(est-s) > margin {
						t.Fatalf("%s: |est %v − Score %v| of (%v,%v) exceeds margin %v", tc.name, est, s, ai, aj, margin)
					}
				}
			}
		}
		if cross == 0 || vetoed <= m.Len() {
			t.Fatalf("%s: degenerate fixture: %d cross-language pairs, %d vetoed pairs over %d attributes",
				tc.name, cross, vetoed, m.Len())
		}
	}
}

// corpusDuals rebuilds the dual-language infoboxes of the cross-linked
// pairs whose source article has type typeA, as sim.TypeData does for
// Build (sim imports this package, so the test cannot call it).
func corpusDuals(c *wiki.Corpus, pair wiki.LanguagePair, typeA string) []Dual {
	side := func(lang wiki.Language, ib *wiki.Infobox) []Attr {
		var out []Attr
		seen := map[string]bool{}
		for _, av := range ib.Attrs {
			if n := text.Normalize(av.Name); n != "" && !seen[n] {
				seen[n] = true
				out = append(out, Attr{Lang: lang, Name: n})
			}
		}
		return out
	}
	var duals []Dual
	for _, p := range c.Pairs(pair) {
		if p.A.Type == typeA {
			duals = append(duals, Dual{A: side(pair.A, p.A.Infobox), B: side(pair.B, p.B.Infobox)})
		}
	}
	return duals
}

func TestRankClamping(t *testing.T) {
	m := Build(paperDuals(), 1000)
	// Must not panic, and scores remain sane.
	if s := m.ScoreAttrs(attr(wiki.English, "born"), attr(wiki.Portuguese, "nascimento")); s <= 0 {
		t.Errorf("high-rank score = %v", s)
	}
}

// syntheticDuals generates a corpus of dual-language infoboxes large
// enough that Build takes the randomized sparse SVD path (the exact
// fallback only covers tiny occurrence matrices).
func syntheticDuals(nAttrs, nDuals, perSide int, seed int64) []Dual {
	rng := rand.New(rand.NewSource(seed))
	enPool := make([]Attr, nAttrs)
	ptPool := make([]Attr, nAttrs)
	for i := range enPool {
		enPool[i] = attr(wiki.English, fmt.Sprintf("en%03d", i))
		ptPool[i] = attr(wiki.Portuguese, fmt.Sprintf("pt%03d", i))
	}
	duals := make([]Dual, nDuals)
	for d := range duals {
		for s := 0; s < perSide; s++ {
			// Correlated draws: the same latent index drives both sides,
			// so the occurrence matrix has real low-rank structure.
			i := rng.Intn(nAttrs)
			duals[d].A = append(duals[d].A, enPool[i])
			j := i
			if rng.Float64() < 0.2 {
				j = rng.Intn(nAttrs)
			}
			duals[d].B = append(duals[d].B, ptPool[j])
		}
	}
	return duals
}

// TestBuildRandomizedMatchesExactSVD pins the tentpole swap: on an
// occurrence matrix big enough for the randomized path, every pairwise
// LSI score must agree with the exact dense-Jacobi model to well below
// the matcher's decision thresholds.
func TestBuildRandomizedMatchesExactSVD(t *testing.T) {
	duals := syntheticDuals(60, 300, 7, 12345)
	fast := Build(duals, DefaultRank)
	exact := BuildWith(duals, DefaultRank, Options{ExactSVD: true})
	if fast.Len() != exact.Len() {
		t.Fatalf("attr counts differ: %d vs %d", fast.Len(), exact.Len())
	}
	// Guard the routing: without this, shrinking the synthetic corpus (or
	// raising linalg's cutoffs) would silently turn the comparison into
	// exact-vs-exact and the randomized path would go unvalidated.
	_, index := IndexAttrs(duals)
	if occ := OccurrenceMatrix(duals, index); linalg.Route(occ, DefaultRank) != "randomized" {
		t.Fatalf("test corpus (%d×%d occurrence matrix) does not route to the randomized path",
			occ.Rows, occ.Cols)
	}
	var maxDiff float64
	for i := 0; i < fast.Len(); i++ {
		for j := i + 1; j < fast.Len(); j++ {
			a, b := fast.Attrs[i], fast.Attrs[j]
			d := math.Abs(fast.ScoreAttrs(a, b) - exact.ScoreAttrs(a, b))
			if d > maxDiff {
				maxDiff = d
			}
		}
	}
	if maxDiff > 1e-6 {
		t.Errorf("max |fast − exact| score diff = %g, want ≤ 1e-6", maxDiff)
	}
}
