package query

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/sim"
	"repro/internal/text"
	"repro/internal/wiki"
)

// Answer is one result row: the answer article (from the query's first
// block) with its projected values and a retrieval score used for
// ranking.
type Answer struct {
	Article    *wiki.Article
	Projected  map[string]string
	Score      float64
	JoinTitles []string // titles of join partners, for inspection
}

// Engine executes c-queries over a corpus in one language.
type Engine struct {
	c    *wiki.Corpus
	lang wiki.Language
	// typeIndex maps normalized type names to their article lists.
	typeIndex map[string][]*wiki.Article
	// linkIndex maps an article key to the set of titles it links to.
	linkIndex map[wiki.Key]map[string]bool
}

// NewEngine indexes the corpus for querying in one language.
func NewEngine(c *wiki.Corpus, lang wiki.Language) *Engine {
	e := &Engine{
		c: c, lang: lang,
		typeIndex: make(map[string][]*wiki.Article),
		linkIndex: make(map[wiki.Key]map[string]bool),
	}
	for _, typ := range c.Types(lang) {
		e.typeIndex[text.Normalize(typ)] = c.OfType(lang, typ)
	}
	for _, a := range c.Articles(lang) {
		if a.Infobox == nil {
			continue
		}
		links := make(map[string]bool)
		for _, av := range a.Infobox.Attrs {
			for _, l := range av.Links {
				links[l.Target] = true
			}
		}
		e.linkIndex[a.Key()] = links
	}
	return e
}

// Lang returns the engine's query language.
func (e *Engine) Lang() wiki.Language { return e.lang }

// Run executes the query and returns up to limit ranked answers.
func (e *Engine) Run(q *Query, limit int) []Answer {
	if len(q.Blocks) == 0 {
		return nil
	}
	// Candidates per block.
	cands := make([][]*wiki.Article, len(q.Blocks))
	for i, b := range q.Blocks {
		cands[i] = e.blockCandidates(b)
	}
	var answers []Answer
	for _, main := range cands[0] {
		joined := true
		var joinTitles []string
		for bi := 1; bi < len(q.Blocks); bi++ {
			partner := ""
			for _, other := range cands[bi] {
				if e.linked(main, other) {
					partner = other.Title
					break
				}
			}
			if partner == "" {
				joined = false
				break
			}
			joinTitles = append(joinTitles, partner)
		}
		if !joined {
			continue
		}
		ans := Answer{Article: main, Projected: map[string]string{}, JoinTitles: joinTitles}
		// Score: satisfied projections plus join count; rich infoboxes
		// rank slightly higher, titles break ties deterministically.
		for _, c := range q.Blocks[0].Constraints {
			if !c.IsProjection() {
				continue
			}
			if av, ok := findAttr(main.Infobox, c.Attrs); ok {
				ans.Projected[c.Attrs[0]] = av.Text
				ans.Score++
			}
		}
		ans.Score += float64(len(joinTitles)) + float64(main.Infobox.Len())/100
		answers = append(answers, ans)
	}
	sort.SliceStable(answers, func(i, j int) bool {
		if answers[i].Score != answers[j].Score {
			return answers[i].Score > answers[j].Score
		}
		return answers[i].Article.Title < answers[j].Article.Title
	})
	if limit > 0 && len(answers) > limit {
		answers = answers[:limit]
	}
	return answers
}

// blockCandidates returns the articles of the block's type satisfying
// every filtering constraint.
func (e *Engine) blockCandidates(b Block) []*wiki.Article {
	var out []*wiki.Article
	for _, a := range e.typeIndex[b.Type] {
		if a.Infobox == nil {
			continue
		}
		ok := true
		for _, c := range b.Constraints {
			if c.IsProjection() {
				continue
			}
			if !satisfies(a.Infobox, c, e.lang) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, a)
		}
	}
	return out
}

// linked reports whether either article's infobox links to the other.
func (e *Engine) linked(a, b *wiki.Article) bool {
	if e.linkIndex[a.Key()][b.Title] || e.linkIndex[b.Key()][a.Title] {
		return true
	}
	return false
}

// findAttr locates the first present attribute among alternatives.
func findAttr(ib *wiki.Infobox, attrs []string) (wiki.AttributeValue, bool) {
	for _, av := range ib.Attrs {
		n := text.Normalize(av.Name)
		for _, want := range attrs {
			if n == want {
				return av, true
			}
		}
	}
	return wiki.AttributeValue{}, false
}

// satisfies checks a filtering constraint against an infobox.
func satisfies(ib *wiki.Infobox, c Constraint, lang wiki.Language) bool {
	av, ok := findAttr(ib, c.Attrs)
	if !ok {
		return false
	}
	switch c.Op {
	case OpEq:
		want := text.Normalize(c.Value)
		for _, term := range sim.ValueTerms(lang, av.Text) {
			if term == want {
				return true
			}
		}
		// Also match against link anchors/targets ("Oscar" inside a
		// linked award name).
		for _, l := range av.Links {
			if text.Normalize(l.Target) == want || text.Normalize(l.Anchor) == want {
				return true
			}
		}
		return false
	case OpLt, OpGt, OpLe, OpGe:
		bound, err := strconv.ParseFloat(c.Value, 64)
		if err != nil {
			return false
		}
		v, ok := NumericValue(av.Text)
		if !ok {
			return false
		}
		switch c.Op {
		case OpLt:
			return v < bound
		case OpGt:
			return v > bound
		case OpLe:
			return v <= bound
		case OpGe:
			return v >= bound
		}
	}
	return false
}

// NumericValue extracts a comparable number from an attribute value
// through the shared value analyzer: the first of its ", " parts that
// text.NormalizeValue reads as a date gives its year, or as a number or
// quantity gives its magnitude in base units ("US$ 12 bilhões" → 12e9,
// "2 horas" → 120 minutes). Splitting on ", " keeps "1,234" one number.
func NumericValue(value string) (float64, bool) {
	for _, part := range strings.Split(value, ", ") {
		switch v := text.NormalizeValue(part); v.Kind {
		case text.ValueDate:
			return float64(v.Year), true
		case text.ValueNumber, text.ValueQuantity:
			return v.Number, true
		}
	}
	return 0, false
}
