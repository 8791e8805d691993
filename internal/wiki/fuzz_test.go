package wiki_test

import (
	"strings"
	"testing"

	"repro/internal/synth"
	"repro/internal/wiki"
)

// FuzzParsePage drives arbitrary wikitext through ParsePage, the parser
// behind /v1/corpus/delta upserts. Whatever the input it must not panic,
// a failure must come back as an error with no article, and an accepted
// page must be structurally sound: the requested key, an infobox whose
// type follows its template and whose attribute names are non-empty and
// unique, and no empty category or cross-link. Seeds are synthetic
// corpus pages rendered by RenderPage, plus hand-written malformations.
func FuzzParsePage(f *testing.F) {
	c, _, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		f.Fatal(err)
	}
	for _, lang := range c.Languages() {
		for i, a := range c.Articles(lang) {
			if i == 3 {
				break
			}
			f.Add(string(lang), a.Title, wiki.RenderPage(a))
		}
	}
	f.Add("en", "X", "{{Infobox film\n| name = [[A|b]] {{nowrap|c}}\n| name = d\n| = e\n| positional\n}}")
	f.Add("pt", "Y", "{{Infobox filme\n| título = {{unclosed\n")
	f.Add("vi", "Z", "[[Category:]] [[en:]] [[pt:Xis]] [[pt:Xis|a]] ]] [[ {{ }}")

	f.Fuzz(func(t *testing.T, lang, title, text string) {
		a, err := wiki.ParsePage(wiki.Language(lang), title, text)
		if err != nil {
			if a != nil {
				t.Fatalf("ParsePage returned both an article and error %v", err)
			}
			return
		}
		if a == nil {
			t.Fatal("ParsePage returned neither an article nor an error")
		}
		if a.Language != wiki.Language(lang) || a.Title != title {
			t.Fatalf("article key %s, want %s:%s", a.Key(), lang, title)
		}
		if ib := a.Infobox; ib != nil {
			if a.Type != wiki.TemplateType(ib.Template) {
				t.Fatalf("type %q, want %q from template %q", a.Type, wiki.TemplateType(ib.Template), ib.Template)
			}
			seen := make(map[string]bool, ib.Len())
			for _, av := range ib.Attrs {
				if strings.TrimSpace(av.Name) == "" || seen[av.Name] {
					t.Fatalf("attribute name %q is empty or repeated", av.Name)
				}
				seen[av.Name] = true
			}
		} else if a.Type != "" {
			t.Fatalf("type %q without an infobox", a.Type)
		}
		for _, cat := range a.Categories {
			if cat == "" {
				t.Fatal("empty category")
			}
		}
		for l, target := range a.CrossLinks {
			if !l.Valid() || target == "" {
				t.Fatalf("cross-link %q -> %q", l, target)
			}
		}
	})
}
