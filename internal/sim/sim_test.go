package sim

import (
	"math"
	"testing"

	"repro/internal/dict"
	"repro/internal/text"
	"repro/internal/wiki"
)

// TestCanonicalDate checks that the matcher puts each language's
// rendering of a date into ISO form (plus its year) and reads no date
// out of values that are not one.
func TestCanonicalDate(t *testing.T) {
	cases := []struct {
		in   string
		want string // ISO form; "" when in is not a date
	}{
		{"December 18, 1950", "1950-12-18"},
		{"December 18 1950", "1950-12-18"},
		{"18 de dezembro de 1950", "1950-12-18"},
		{"18 de Dezembro 1950", "1950-12-18"},
		{"18 tháng 12 năm 1950", "1950-12-18"},
		{"18 tháng 12 1950", "1950-12-18"},
		{"June 4 1975", "1975-06-04"},
		{"4 de junho de 1975", "1975-06-04"},
		{"just words", ""},
		{"1963", ""},
		{"December 40, 1950", ""},
		{"0 de dezembro de 1950", ""},
		{"160 minutes", ""},
	}
	for _, c := range cases {
		got := ValueTerms(wiki.English, c.in)
		if c.want != "" {
			if len(got) != 2 || got[0] != c.want || got[1] != c.want[:4] {
				t.Errorf("ValueTerms(%q) = %v, want [%s %s]", c.in, got, c.want, c.want[:4])
			}
			continue
		}
		for _, term := range got {
			if _, ok := text.ParseDate(term); ok {
				t.Errorf("ValueTerms(%q) = %v, read %q as a date", c.in, got, term)
			}
		}
	}
}

func TestValueTerms(t *testing.T) {
	terms := ValueTerms(wiki.Portuguese, "Irlanda, 18 de Dezembro de 1950, Estados Unidos")
	want := []string{"irlanda", "1950-12-18", "1950", "estados unidos"}
	if len(terms) != len(want) {
		t.Fatalf("terms = %v", terms)
	}
	for i := range want {
		if terms[i] != want[i] {
			t.Errorf("term[%d] = %q, want %q", i, terms[i], want[i])
		}
	}
	// Parenthesized commas do not split.
	terms = ValueTerms(wiki.English, "Acme (TV, radio), Other")
	if len(terms) != 2 {
		t.Errorf("paren split terms = %v", terms)
	}
	// Number-with-unit segments reduce to the number, in any language.
	for _, v := range []string{"160 minutes", "160 min", "160 phút"} {
		if got := ValueTerms(wiki.English, v); len(got) != 1 || got[0] != "160" {
			t.Errorf("ValueTerms(%q) = %v, want [160]", v, got)
		}
	}
	// English dates cut at their comma are re-merged, and ISO dates are
	// dates too: both contribute the ISO form and its year.
	for _, v := range []string{"October 4, 1987", "1987-10-04"} {
		if got := ValueTerms(wiki.English, v); len(got) != 2 || got[0] != "1987-10-04" || got[1] != "1987" {
			t.Errorf("ValueTerms(%q) = %v, want [1987-10-04 1987]", v, got)
		}
	}
	// Money keeps the phrase and the digit run.
	got := ValueTerms(wiki.Portuguese, "US$ 23 milhões")
	if len(got) != 2 || got[1] != "23" {
		t.Errorf("money terms = %v", got)
	}
}

// buildFixture assembles a small Pt-En film corpus exercising every
// similarity channel: shared values, dictionary translation, links, and
// cross-language link resolution.
func buildFixture(t *testing.T) (*wiki.Corpus, *TypeData) {
	t.Helper()
	c := wiki.NewCorpus()
	addStub := func(enT, ptT string) {
		a := &wiki.Article{Language: wiki.English, Title: enT,
			CrossLinks: map[wiki.Language]string{wiki.Portuguese: ptT}}
		b := &wiki.Article{Language: wiki.Portuguese, Title: ptT,
			CrossLinks: map[wiki.Language]string{wiki.English: enT}}
		c.MustAdd(a)
		c.MustAdd(b)
	}
	addStub("United States", "Estados Unidos")
	addStub("Ireland", "Irlanda")
	addStub("Bernardo Bertolucci", "Bernardo Bertolucci (cineasta)")

	films := []struct {
		enTitle, ptTitle string
		enAttrs, ptAttrs []wiki.AttributeValue
	}{
		{
			"The Last Emperor", "O Último Imperador",
			[]wiki.AttributeValue{
				{Name: "directed by", Text: "Bernardo Bertolucci", Links: []wiki.Link{{Target: "Bernardo Bertolucci", Anchor: "Bernardo Bertolucci"}}},
				{Name: "country", Text: "United States", Links: []wiki.Link{{Target: "United States", Anchor: "United States"}}},
				{Name: "release date", Text: "October 4, 1987"},
			},
			[]wiki.AttributeValue{
				{Name: "direção", Text: "Bernardo Bertolucci", Links: []wiki.Link{{Target: "Bernardo Bertolucci (cineasta)", Anchor: "Bernardo Bertolucci"}}},
				{Name: "país", Text: "Estados Unidos", Links: []wiki.Link{{Target: "Estados Unidos", Anchor: "Estados Unidos"}}},
				{Name: "lançamento", Text: "4 de outubro de 1987"},
			},
		},
		{
			"The Quiet River", "O Rio Quieto",
			[]wiki.AttributeValue{
				{Name: "directed by", Text: "Bernardo Bertolucci", Links: []wiki.Link{{Target: "Bernardo Bertolucci", Anchor: "Bernardo Bertolucci"}}},
				{Name: "country", Text: "Ireland", Links: []wiki.Link{{Target: "Ireland", Anchor: "Ireland"}}},
				{Name: "release date", Text: "May 2, 1990"},
			},
			[]wiki.AttributeValue{
				{Name: "direção", Text: "Bernardo Bertolucci", Links: []wiki.Link{{Target: "Bernardo Bertolucci (cineasta)", Anchor: "Bernardo Bertolucci"}}},
				{Name: "país", Text: "Irlanda", Links: []wiki.Link{{Target: "Irlanda", Anchor: "Irlanda"}}},
				{Name: "lançamento", Text: "2 de maio de 1990"},
			},
		},
	}
	for _, f := range films {
		enArt := &wiki.Article{Language: wiki.English, Title: f.enTitle, Type: "film",
			Infobox:    &wiki.Infobox{Template: "Infobox film", Attrs: f.enAttrs},
			CrossLinks: map[wiki.Language]string{wiki.Portuguese: f.ptTitle}}
		ptArt := &wiki.Article{Language: wiki.Portuguese, Title: f.ptTitle, Type: "filme",
			Infobox:    &wiki.Infobox{Template: "Infobox filme", Attrs: f.ptAttrs},
			CrossLinks: map[wiki.Language]string{wiki.English: f.enTitle}}
		c.MustAdd(enArt)
		c.MustAdd(ptArt)
	}
	d := dict.Build(c, wiki.Portuguese, wiki.English)
	td := BuildTypeData(c, wiki.PtEn, "filme", "film", d)
	return c, td
}

func (td *TypeData) idx(t *testing.T, lang wiki.Language, name string) int {
	t.Helper()
	i := td.AttrIndex(Attr{Lang: lang, Name: text.Normalize(name)})
	if i < 0 {
		t.Fatalf("attribute %s:%s not in TypeData (attrs: %v)", lang, name, td.Attrs)
	}
	return i
}

func TestVSimWithDictionaryTranslation(t *testing.T) {
	_, td := buildFixture(t)
	pais := td.idx(t, wiki.Portuguese, "país")
	country := td.idx(t, wiki.English, "country")
	if got := td.VSim(pais, country); math.Abs(got-1) > 1e-9 {
		t.Errorf("vsim(país,country) = %v, want 1 (dictionary translates both values)", got)
	}
	// Without the dictionary the Portuguese titles do not match.
	c, _ := buildFixture(t)
	tdNoDict := BuildTypeData(c, wiki.PtEn, "filme", "film", nil)
	pais = tdNoDict.idx(t, wiki.Portuguese, "país")
	country = tdNoDict.idx(t, wiki.English, "country")
	if got := tdNoDict.VSim(pais, country); got != 0 {
		t.Errorf("vsim without dictionary = %v, want 0", got)
	}
}

func TestVSimDateCanonicalization(t *testing.T) {
	_, td := buildFixture(t)
	lanc := td.idx(t, wiki.Portuguese, "lançamento")
	rel := td.idx(t, wiki.English, "release date")
	if got := td.VSim(lanc, rel); math.Abs(got-1) > 1e-9 {
		t.Errorf("vsim(lançamento,release date) = %v, want 1 via ISO dates", got)
	}
}

func TestLSimCrossLanguageResolution(t *testing.T) {
	_, td := buildFixture(t)
	dir := td.idx(t, wiki.Portuguese, "direção")
	directed := td.idx(t, wiki.English, "directed by")
	if got := td.LSim(dir, directed); math.Abs(got-1) > 1e-9 {
		t.Errorf("lsim(direção,directed by) = %v, want 1 (cross-linked targets)", got)
	}
	pais := td.idx(t, wiki.Portuguese, "país")
	if got := td.LSim(dir, pais); got != 0 {
		t.Errorf("lsim(direção,país) = %v, want 0", got)
	}
}

func TestOccurrencesAndCoOccurrence(t *testing.T) {
	_, td := buildFixture(t)
	dir := td.idx(t, wiki.Portuguese, "direção")
	pais := td.idx(t, wiki.Portuguese, "país")
	directed := td.idx(t, wiki.English, "directed by")
	if td.Occurrences(dir) != 2 {
		t.Errorf("occ(direção) = %d", td.Occurrences(dir))
	}
	if td.CoOccurLang(dir, pais) != 2 {
		t.Errorf("coLang(direção,país) = %d", td.CoOccurLang(dir, pais))
	}
	if td.CoOccurLang(dir, directed) != 0 {
		t.Errorf("cross-language coLang should be 0")
	}
	if td.CoOccurDual(dir, directed) != 2 {
		t.Errorf("coDual(direção,directed by) = %d", td.CoOccurDual(dir, directed))
	}
	if td.NumInfoboxes(wiki.Portuguese) != 2 || td.NumInfoboxes(wiki.English) != 2 {
		t.Errorf("box counts = %d / %d", td.NumInfoboxes(wiki.Portuguese), td.NumInfoboxes(wiki.English))
	}
	if len(td.Duals) != 2 {
		t.Errorf("duals = %d", len(td.Duals))
	}
}

func TestGroupingScore(t *testing.T) {
	_, td := buildFixture(t)
	dir := td.idx(t, wiki.Portuguese, "direção")
	pais := td.idx(t, wiki.Portuguese, "país")
	if got := td.Grouping(dir, pais); math.Abs(got-1) > 1e-9 {
		t.Errorf("g(direção,país) = %v, want 1 (always co-occur)", got)
	}
	directed := td.idx(t, wiki.English, "directed by")
	if got := td.Grouping(dir, directed); got != 0 {
		t.Errorf("cross-language grouping = %v, want 0", got)
	}
}

type fakeMatched struct {
	contains map[int]bool
	aligned  map[[2]int]bool
}

func (f fakeMatched) Contains(i int) bool { return f.contains[i] }
func (f fakeMatched) Aligned(i, j int) bool {
	return f.aligned[[2]int{i, j}] || f.aligned[[2]int{j, i}]
}

func TestInductiveGrouping(t *testing.T) {
	_, td := buildFixture(t)
	dir := td.idx(t, wiki.Portuguese, "direção")
	directed := td.idx(t, wiki.English, "directed by")
	pais := td.idx(t, wiki.Portuguese, "país")
	country := td.idx(t, wiki.English, "country")
	lanc := td.idx(t, wiki.Portuguese, "lançamento")
	rel := td.idx(t, wiki.English, "release date")

	// Suppose direção~directed by is already matched; the uncertain pair
	// lançamento~release date co-occurs with it on both sides, so its
	// inductive grouping score is high.
	m := fakeMatched{
		contains: map[int]bool{dir: true, directed: true},
		aligned:  map[[2]int]bool{{dir, directed}: true},
	}
	if got := td.InductiveGrouping(lanc, rel, m); math.Abs(got-1) > 1e-9 {
		t.Errorf("eg(lançamento,release date) = %v, want 1", got)
	}
	// With no matches there is no evidence.
	empty := fakeMatched{contains: map[int]bool{}, aligned: map[[2]int]bool{}}
	if got := td.InductiveGrouping(pais, country, empty); got != 0 {
		t.Errorf("eg with empty matches = %v, want 0", got)
	}
}

func TestXMeasures(t *testing.T) {
	_, td := buildFixture(t)
	dir := td.idx(t, wiki.Portuguese, "direção")
	directed := td.idx(t, wiki.English, "directed by")
	if got := td.X1(dir, directed); got != 2 {
		t.Errorf("X1 = %v", got)
	}
	if got := td.X2(dir, directed); math.Abs(got-4) > 1e-9 {
		t.Errorf("X2 = %v, want (1+1)(1+1)=4", got)
	}
	if got := td.X3(dir, directed); math.Abs(got-1) > 1e-9 {
		t.Errorf("X3 = %v, want 4/4=1", got)
	}
}

func TestCrossAndAllPairs(t *testing.T) {
	_, td := buildFixture(t)
	n := len(td.Attrs)
	if n != 6 {
		t.Fatalf("attrs = %d (%v)", n, td.Attrs)
	}
	if got := len(td.CrossPairs()); got != 9 {
		t.Errorf("cross pairs = %d, want 3×3", got)
	}
	if got := len(td.AllPairs()); got != n*(n-1)/2 {
		t.Errorf("all pairs = %d", got)
	}
}

func TestDisplayPreservesSurfaceForm(t *testing.T) {
	_, td := buildFixture(t)
	a := Attr{Lang: wiki.Portuguese, Name: text.Normalize("direção")}
	if td.Display[a] != "direção" {
		t.Errorf("display = %q", td.Display[a])
	}
}
