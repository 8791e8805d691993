package sim_test

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/wiki"
)

type langValue struct {
	lang  wiki.Language
	value string
}

// infoboxValues lists every infobox value of a corpus with its edition.
func infoboxValues(c *wiki.Corpus) []langValue {
	var out []langValue
	for _, lang := range c.Languages() {
		for _, a := range c.Articles(lang) {
			if a.Infobox == nil {
				continue
			}
			for _, av := range a.Infobox.Attrs {
				out = append(out, langValue{lang, av.Text})
			}
		}
	}
	return out
}

// BenchmarkValueTerms times one ValueTerms pass over every infobox value
// of the paper corpus and of the 12-edition corpus. ValueTerms runs on
// the cold path (per-type value vectors), so allocs/op tracks the cost of
// the shared value analyzer there.
func BenchmarkValueTerms(b *testing.B) {
	paper, _, err := synth.Generate(synth.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	editions, _, err := synth.Editions(synth.DefaultEditions())
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name   string
		values []langValue
	}{
		{"paper", infoboxValues(paper)},
		{"editions", infoboxValues(editions)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				for _, v := range bc.values {
					sim.ValueTerms(v.lang, v.value)
				}
			}
		})
	}
}
