package query

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/synth"
	"repro/internal/wiki"
)

var (
	testCorpus *wiki.Corpus
	testTruth  *synth.GroundTruth
	testResPt  *core.Result
	testResVn  *core.Result
)

func fixtures(t *testing.T) (*wiki.Corpus, *synth.GroundTruth, *core.Result, *core.Result) {
	t.Helper()
	if testCorpus == nil {
		c, g, err := synth.Generate(synth.SmallConfig())
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		m := core.NewMatcher(core.DefaultConfig())
		testCorpus, testTruth = c, g
		testResPt = m.Match(c, wiki.PtEn)
		testResVn = m.Match(c, wiki.VnEn)
	}
	return testCorpus, testTruth, testResPt, testResVn
}

func TestParseSimple(t *testing.T) {
	q, err := Parse(`filme(título|nome=?, receita>10000000) and ator(ocupação="político")`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(q.Blocks) != 2 {
		t.Fatalf("blocks = %d", len(q.Blocks))
	}
	b := q.Blocks[0]
	if b.Type != "filme" {
		t.Errorf("type = %q", b.Type)
	}
	if len(b.Constraints) != 2 {
		t.Fatalf("constraints = %v", b.Constraints)
	}
	if !b.Constraints[0].IsProjection() || len(b.Constraints[0].Attrs) != 2 {
		t.Errorf("projection = %+v", b.Constraints[0])
	}
	if b.Constraints[1].Op != OpGt || b.Constraints[1].Value != "10000000" {
		t.Errorf("numeric = %+v", b.Constraints[1])
	}
	if q.Blocks[1].Constraints[0].Value != "político" {
		t.Errorf("eq value = %+v", q.Blocks[1].Constraints[0])
	}
}

func TestParseNormalizesDiacritics(t *testing.T) {
	q, err := Parse(`diễn viên(tên=?)`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if q.Blocks[0].Type != "dien vien" {
		t.Errorf("type = %q", q.Blocks[0].Type)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"noparens",
		"t(attr!5)",
		"t(=5)",
		"t(a>abc)",
		"t(a=)",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

func TestParseWorkload(t *testing.T) {
	for _, cq := range CaseStudyWorkload() {
		if _, err := Parse(cq.PT); err != nil {
			t.Errorf("query %d PT: %v", cq.ID, err)
		}
		if _, err := Parse(cq.VN); err != nil {
			t.Errorf("query %d VN: %v", cq.ID, err)
		}
	}
	if got := len(CaseStudyWorkload()); got != 10 {
		t.Errorf("workload size = %d, want 10 (Table 4)", got)
	}
}

func TestEngineEqualityQuery(t *testing.T) {
	c, _, _, _ := fixtures(t)
	e := NewEngine(c, wiki.Portuguese)
	q, err := Parse(`artista(nome=?, origem="França", gênero="Jazz")`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	answers := e.Run(q, 20)
	if len(answers) == 0 {
		t.Fatal("no French Jazz artists found (the generator seeds them)")
	}
	for _, a := range answers {
		if a.Article.Type != "artista" {
			t.Errorf("answer type = %q", a.Article.Type)
		}
	}
}

func TestEngineNumericQuery(t *testing.T) {
	c, _, _, _ := fixtures(t)
	e := NewEngine(c, wiki.Portuguese)
	q, err := Parse(`empresa(sede=?, faturamento|receita>10000000000)`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	answers := e.Run(q, 20)
	if len(answers) == 0 {
		t.Fatal("no big companies found (the generator seeds them)")
	}
}

func TestEngineJoinQuery(t *testing.T) {
	c, _, _, _ := fixtures(t)
	e := NewEngine(c, wiki.Portuguese)
	q, err := Parse(`ator(nome=?) and filme(direção="Francis Ford Coppola")`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	answers := e.Run(q, 20)
	if len(answers) == 0 {
		t.Fatal("no actors in Coppola films found")
	}
	for _, a := range answers {
		if len(a.JoinTitles) != 1 {
			t.Errorf("answer %q join titles = %v", a.Article.Title, a.JoinTitles)
		}
	}
}

func TestNumericValue(t *testing.T) {
	cases := []struct {
		value string
		want  float64
		ok    bool
	}{
		{"$23 million", 23e6, true},
		{"US$ 12 bilhões", 12e9, true},
		{"23 triệu USD", 23e6, true},
		{"18 de dezembro de 1950", 1950, true},
		{"October 4, 1987", 1987, true},
		{"160 minutes", 160, true},
		// Quantities compare in base units, and "1,234" is one number:
		// the analyzer reads "2 horas" as 120 minutes and the ", " split
		// leaves the grouping comma alone.
		{"2 horas", 120, true},
		{"1,234", 1234, true},
		{"plain words", 0, false},
	}
	for _, cse := range cases {
		got, ok := NumericValue(cse.value)
		if ok != cse.ok || (ok && got != cse.want) {
			t.Errorf("NumericValue(%q) = %v, %v; want %v, %v", cse.value, got, ok, cse.want, cse.ok)
		}
	}
}

func TestTranslateQuery(t *testing.T) {
	_, _, resPt, _ := fixtures(t)
	q, err := Parse(`filme(título|nome=?, país="Brasil")`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	tr := Translate(q, resPt)
	if tr.Untranslatable {
		t.Fatalf("film query untranslatable; dropped=%v relaxed=%v", tr.DroppedBlocks, tr.RelaxedAttrs)
	}
	if got := tr.Query.Blocks[0].Type; got != "film" {
		t.Errorf("translated type = %q", got)
	}
	var eqConstraint *Constraint
	for i := range tr.Query.Blocks[0].Constraints {
		if tr.Query.Blocks[0].Constraints[i].Op == OpEq {
			eqConstraint = &tr.Query.Blocks[0].Constraints[i]
		}
	}
	if eqConstraint == nil {
		t.Fatalf("country constraint relaxed away: %v", tr.RelaxedAttrs)
	}
	if eqConstraint.Value != "Brazil" {
		t.Errorf("value translated to %q, want Brazil", eqConstraint.Value)
	}
	found := false
	for _, a := range eqConstraint.Attrs {
		if a == "country" {
			found = true
		}
	}
	if !found {
		t.Errorf("país translated to %v, want country among them", eqConstraint.Attrs)
	}
}

func TestTranslateRelaxesDanglingAttributes(t *testing.T) {
	_, _, _, resVn := fixtures(t)
	// giải thưởng (awards) does not exist in the Vietnamese film template,
	// so translating it must relax the constraint.
	q, err := Parse(`phim(tên=?, giải thưởng="Oscar")`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	tr := Translate(q, resVn)
	if tr.Untranslatable {
		t.Fatal("film block should translate")
	}
	if len(tr.RelaxedAttrs) == 0 {
		t.Error("expected the awards constraint to be relaxed")
	}
}

func TestTranslateDropsUnknownTypes(t *testing.T) {
	_, _, _, resVn := fixtures(t)
	q, err := Parse(`sách(tên=?)`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	tr := Translate(q, resVn)
	if !tr.Untranslatable {
		t.Error("book query from Vietnamese should be untranslatable")
	}
}

func TestOracleScoring(t *testing.T) {
	_, truth, _, _ := fixtures(t)
	o := NewOracle(truth)
	intent := Intent{
		MainType: "artist",
		Main: []CanonCond{
			{Attr: "origin", Op: OpEq, Value: "France"},
			{Attr: "genre", Op: OpEq, Value: "Jazz"},
		},
	}
	// Find a seeded French Jazz artist and a non-matching one.
	var seeded, other *synth.Entity
	for i, e := range truth.Entities["artist"] {
		if i%6 == 0 && seeded == nil {
			seeded = e
		}
		if i%6 == 2 && other == nil {
			other = e
		}
	}
	if rel := o.Relevance(wiki.English, seeded.Titles[wiki.English], intent); rel != 4 {
		t.Errorf("seeded artist relevance = %v, want 4", rel)
	}
	if rel := o.Relevance(wiki.English, "No Such Article", intent); rel != 0 {
		t.Errorf("unknown answer relevance = %v, want 0", rel)
	}
	wrongType := Intent{MainType: "film"}
	if rel := o.Relevance(wiki.English, seeded.Titles[wiki.English], wrongType); rel != 0 {
		t.Errorf("wrong-type relevance = %v, want 0", rel)
	}
	_ = other
}

func TestGraderScores(t *testing.T) {
	a, b := GraderScores(3.5)
	if a != 4 || b != 3 {
		t.Errorf("graders(3.5) = %d, %d", a, b)
	}
	a, b = GraderScores(0)
	if a != 0 || b != 0 {
		t.Errorf("graders(0) = %d, %d", a, b)
	}
}

func TestRunCaseStudyShape(t *testing.T) {
	c, truth, resPt, resVn := fixtures(t)
	series, err := RunCaseStudy(c, truth, resPt, resVn, 20)
	if err != nil {
		t.Fatalf("RunCaseStudy: %v", err)
	}
	if len(series) != 4 {
		t.Fatalf("series = %d", len(series))
	}
	byName := map[string][]float64{}
	for _, s := range series {
		if len(s.CG) != 20 {
			t.Fatalf("series %s length %d", s.Name, len(s.CG))
		}
		// CG must be nondecreasing.
		for i := 1; i < len(s.CG); i++ {
			if s.CG[i] < s.CG[i-1] {
				t.Fatalf("series %s CG decreases at %d", s.Name, i)
			}
		}
		byName[s.Name] = s.CG
	}
	last := len(byName["Pt"]) - 1
	// The headline result of Figure 4: translated queries dominate.
	if byName["Pt→En"][last] <= byName["Pt"][last] {
		t.Errorf("Pt→En CG (%v) should exceed Pt (%v)", byName["Pt→En"][last], byName["Pt"][last])
	}
	if byName["Vn→En"][last] <= byName["Vn"][last] {
		t.Errorf("Vn→En CG (%v) should exceed Vn (%v)", byName["Vn→En"][last], byName["Vn"][last])
	}
	// And the Vn→En cumulative gain stays below Pt→En: the Vietnamese
	// dataset's dangling types cannot be translated and their queries
	// are relaxed into emptiness (Section 5).
	if byName["Vn→En"][last] >= byName["Pt→En"][last] {
		t.Errorf("Vn→En CG (%v) should be smaller than Pt→En CG (%v)",
			byName["Vn→En"][last], byName["Pt→En"][last])
	}
}

func TestQueryStringRoundTrip(t *testing.T) {
	src := `filme(título=?, receita>10000000) and ator(ocupação="político")`
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatalf("Parse(String): %v (text: %s)", err, q.String())
	}
	if len(q2.Blocks) != len(q.Blocks) {
		t.Errorf("round-trip blocks = %d", len(q2.Blocks))
	}
	if !strings.Contains(q.String(), "receita>") {
		t.Errorf("String() = %q", q.String())
	}
}
