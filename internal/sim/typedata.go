package sim

import (
	"context"
	"sort"
	"sync"

	"repro/internal/dict"
	"repro/internal/lsi"
	"repro/internal/text"
	"repro/internal/wiki"
)

// Attr identifies an attribute by language and normalized name. It is the
// same identity the LSI model uses.
type Attr = lsi.Attr

// TypeData is the similarity workspace for one (entity type, language
// pair): the unified dual-language schema, value and link vectors per
// attribute, translated value vectors for the non-pivot side, occurrence
// and co-occurrence statistics, and the dual-language infobox list that
// feeds LSI. A TypeData is never mutated after BuildTypeData returns, so
// cached instances may be scored by many goroutines at once.
type TypeData struct {
	Pair  wiki.LanguagePair
	TypeA string // localized type name on the pair.A side
	TypeB string // localized type name on the pair.B side

	Attrs []Attr
	Index map[Attr]int

	// Display maps the normalized attribute name back to the surface form
	// first seen in the corpus.
	Display map[Attr]string

	Duals []lsi.Dual

	valueVec []text.TF // canonicalized value-term vectors (WikiMatch's vsim)
	transVec []text.TF // pair.A-side vectors translated A→B (nil for B side)
	linkVec  []text.TF // canonical link-target vectors

	// rawVec and rawTransVec hold plain comma-segment vectors without
	// WikiMatch's date/number canonicalization, for generic instance
	// matchers (the COMA++ baseline).
	rawVec      []text.TF
	rawTransVec []text.TF

	// occ counts how many infoboxes of the attribute's own language
	// contain it; coLang counts same-language co-occurrence; coDual
	// counts co-occurrence inside dual-language infoboxes.
	occ    []int
	coLang coRows
	coDual coRows

	// nBoxes is the number of infoboxes per language side.
	nBoxes map[wiki.Language]int

	// kernel is the lazily built merge-join scoring kernel (kernel.go) —
	// derived state, excluded from snapshots and rebuilt on first use.
	kernelOnce sync.Once
	kernel     *Kernel
}

// BuildTypeData assembles the workspace from the corpus. typeA and typeB
// are the localized entity-type names on each side (e.g. "filme", "film");
// d translates pair.A titles into pair.B (may be nil to disable
// dictionary translation — the vsim-without-dictionary ablation).
func BuildTypeData(c *wiki.Corpus, pair wiki.LanguagePair, typeA, typeB string, d *dict.Dictionary) *TypeData {
	td, _ := BuildTypeDataCtx(context.Background(), c, pair, typeA, typeB, d)
	return td
}

// buildCheckEvery is how many cross-linked infobox pairs BuildTypeDataCtx
// ingests between context checks. Ingestion is the dominant cold-build
// cost on dump-scale types, so the stride keeps cancellation latency to a
// few milliseconds without measurable overhead.
const buildCheckEvery = 64

// BuildTypeDataCtx is BuildTypeData with cancellation: the ingestion
// loops check ctx every few infobox pairs and abandon the build (nil
// TypeData, ctx.Err()) once the context is done.
func BuildTypeDataCtx(ctx context.Context, c *wiki.Corpus, pair wiki.LanguagePair, typeA, typeB string, d *dict.Dictionary) (*TypeData, error) {
	td := &TypeData{
		Pair: pair, TypeA: typeA, TypeB: typeB,
		Index:   make(map[Attr]int),
		Display: make(map[Attr]string),
		nBoxes:  map[wiki.Language]int{},
	}
	coLang, coDual := coCounter{}, coCounter{}
	intern := func(a Attr, display string) int {
		if i, ok := td.Index[a]; ok {
			return i
		}
		i := len(td.Attrs)
		td.Attrs = append(td.Attrs, a)
		td.Index[a] = i
		td.Display[a] = display
		td.valueVec = append(td.valueVec, text.TF{})
		td.transVec = append(td.transVec, nil)
		td.linkVec = append(td.linkVec, text.TF{})
		td.rawVec = append(td.rawVec, text.TF{})
		td.rawTransVec = append(td.rawTransVec, nil)
		td.occ = append(td.occ, 0)
		return i
	}

	// Gather the type's infoboxes on each side. Following the paper's
	// dataset construction (Section 4: only infoboxes whose articles have
	// cross-language links to the equivalent article were selected), the
	// statistics are computed over the cross-linked pairs.
	pairs := make([]wiki.ArticlePair, 0)
	for _, p := range c.Pairs(pair) {
		if p.A.Type == typeA && p.B.Type == typeB {
			pairs = append(pairs, p)
		}
	}
	ingest := func(lang wiki.Language, box *wiki.Infobox) {
		td.nBoxes[lang]++
		var boxIdx []int
		for _, av := range box.Attrs {
			key := Attr{Lang: lang, Name: text.Normalize(av.Name)}
			if key.Name == "" {
				continue
			}
			i := intern(key, av.Name)
			boxIdx = append(boxIdx, i)
			td.occ[i]++
			for _, term := range ValueTerms(lang, av.Text) {
				td.valueVec[i].Add(term, 1)
			}
			for _, term := range RawValueTerms(av.Text) {
				td.rawVec[i].Add(term, 1)
			}
			for _, l := range av.Links {
				td.linkVec[i].Add(CanonicalLinkKey(c, lang, l.Target), 1)
			}
		}
		sort.Ints(boxIdx)
		for x := 0; x < len(boxIdx); x++ {
			for y := x + 1; y < len(boxIdx); y++ {
				if boxIdx[x] != boxIdx[y] {
					coLang.add(boxIdx[x], boxIdx[y])
				}
			}
		}
	}
	for k, p := range pairs {
		if k%buildCheckEvery == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		ingest(pair.A, p.A.Infobox)
		ingest(pair.B, p.B.Infobox)
	}

	// Dual-language infoboxes: the same cross-linked pairs.
	for k, p := range pairs {
		if k%buildCheckEvery == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		var dual lsi.Dual
		seenA, seenB := map[string]bool{}, map[string]bool{}
		for _, av := range p.A.Infobox.Attrs {
			n := text.Normalize(av.Name)
			if n != "" && !seenA[n] {
				seenA[n] = true
				dual.A = append(dual.A, Attr{Lang: pair.A, Name: n})
			}
		}
		for _, av := range p.B.Infobox.Attrs {
			n := text.Normalize(av.Name)
			if n != "" && !seenB[n] {
				seenB[n] = true
				dual.B = append(dual.B, Attr{Lang: pair.B, Name: n})
			}
		}
		td.Duals = append(td.Duals, dual)
		var all []int
		for _, a := range dual.A {
			all = append(all, td.Index[a])
		}
		for _, b := range dual.B {
			all = append(all, td.Index[b])
		}
		sort.Ints(all)
		for x := 0; x < len(all); x++ {
			for y := x + 1; y < len(all); y++ {
				coDual.add(all[x], all[y])
			}
		}
	}

	td.coLang = coLang.freeze(len(td.Attrs))
	td.coDual = coDual.freeze(len(td.Attrs))

	// Translated value vectors for the pair.A side.
	translate := func(src text.TF) text.TF {
		tv := make(text.TF, len(src))
		for term, f := range src {
			if d != nil {
				if tr, ok := d.Translate(term); ok {
					tv[text.Normalize(tr)] += f
					continue
				}
			}
			tv[term] += f
		}
		return tv
	}
	for i, a := range td.Attrs {
		if i%buildCheckEvery == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if a.Lang != pair.A {
			continue
		}
		td.transVec[i] = translate(td.valueVec[i])
		td.rawTransVec[i] = translate(td.rawVec[i])
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return td, nil
}

// CanonicalLinkKey maps a link target to a language-independent key: the
// English title when the landing article's cross-language links resolve
// it, otherwise the normalized target itself. Two values are then "equal"
// exactly when their landing articles are cross-language linked (or
// share a title, which covers untranslated proper names).
func CanonicalLinkKey(c *wiki.Corpus, lang wiki.Language, target string) string {
	if lang == wiki.English {
		return "en:" + text.Normalize(target)
	}
	if art, ok := c.Get(lang, target); ok {
		if enTitle, ok := art.CrossLink(wiki.English); ok {
			return "en:" + text.Normalize(enTitle)
		}
	}
	// The link may be recorded only on the English side.
	if enTitle, ok := c.ReverseCrossLink(lang, target, wiki.English); ok {
		return "en:" + text.Normalize(enTitle)
	}
	return "en:" + text.Normalize(target)
}

// AttrIndex returns the index of an attribute, or -1.
func (td *TypeData) AttrIndex(a Attr) int {
	if i, ok := td.Index[a]; ok {
		return i
	}
	return -1
}

// Occurrences returns how many infoboxes of the attribute's language
// contain it.
func (td *TypeData) Occurrences(i int) int { return td.occ[i] }

// NumInfoboxes returns the number of infoboxes on a language side.
func (td *TypeData) NumInfoboxes(lang wiki.Language) int { return td.nBoxes[lang] }

// CoOccurLang returns how many single-language infoboxes contain both
// attributes (0 for attributes of different languages).
func (td *TypeData) CoOccurLang(i, j int) int { return td.coLang.count(i, j) }

// CoOccurDual returns how many dual-language infoboxes contain both
// attributes.
func (td *TypeData) CoOccurDual(i, j int) int { return td.coDual.count(i, j) }

// VSim is the paper's value similarity: the cosine between the (A-side
// translated) value vectors.
func (td *TypeData) VSim(i, j int) float64 {
	vi, vj := td.cmpVec(i, j)
	return vi.Cosine(vj)
}

// cmpVec picks comparable representations: when the two attributes are in
// different languages, the A side uses its translated vector.
func (td *TypeData) cmpVec(i, j int) (text.TF, text.TF) {
	ai, aj := td.Attrs[i], td.Attrs[j]
	vi, vj := td.valueVec[i], td.valueVec[j]
	if ai.Lang != aj.Lang {
		if ai.Lang == td.Pair.A && td.transVec[i] != nil {
			vi = td.transVec[i]
		}
		if aj.Lang == td.Pair.A && td.transVec[j] != nil {
			vj = td.transVec[j]
		}
	}
	return vi, vj
}

// LSim is the link-structure similarity: cosine over canonical link keys.
func (td *TypeData) LSim(i, j int) float64 {
	return td.linkVec[i].Cosine(td.linkVec[j])
}

// ValueVector exposes an attribute's canonicalized value vector.
func (td *TypeData) ValueVector(i int) text.TF { return td.valueVec[i] }

// RawVSim is the generic instance-matcher similarity: cosine over the
// plain comma-segment vectors, optionally with the A side translated
// through the dictionary (the COMA "+D" configurations).
func (td *TypeData) RawVSim(i, j int, translated bool) float64 {
	ai, aj := td.Attrs[i], td.Attrs[j]
	vi, vj := td.rawVec[i], td.rawVec[j]
	if translated && ai.Lang != aj.Lang {
		if ai.Lang == td.Pair.A && td.rawTransVec[i] != nil {
			vi = td.rawTransVec[i]
		}
		if aj.Lang == td.Pair.A && td.rawTransVec[j] != nil {
			vj = td.rawTransVec[j]
		}
	}
	return vi.Cosine(vj)
}

// TranslatedVector exposes the A→B translated vector (nil on the B side).
func (td *TypeData) TranslatedVector(i int) text.TF { return td.transVec[i] }

// LinkVector exposes an attribute's canonical link-target vector.
func (td *TypeData) LinkVector(i int) text.TF { return td.linkVec[i] }

// Grouping returns g(ap, aq) = Opq / min(Op, Oq), the within-language
// grouping score of Section 3.4. It is 0 for attributes of different
// languages or unobserved attributes.
func (td *TypeData) Grouping(i, j int) float64 {
	if td.Attrs[i].Lang != td.Attrs[j].Lang {
		return 0
	}
	return td.grouping(i, j, int32(td.CoOccurLang(i, j)))
}

// grouping is g(ai, aj) for two same-language attributes that co-occur
// co times.
func (td *TypeData) grouping(i, j int, co int32) float64 {
	minOcc := min(td.occ[i], td.occ[j])
	if minOcc == 0 {
		return 0
	}
	return float64(co) / float64(minOcc)
}

// CrossPairs enumerates every cross-language attribute index pair (a in
// pair.A, b in pair.B), ordered deterministically.
func (td *TypeData) CrossPairs() [][2]int {
	var aIdx, bIdx []int
	for i, a := range td.Attrs {
		if a.Lang == td.Pair.A {
			aIdx = append(aIdx, i)
		} else {
			bIdx = append(bIdx, i)
		}
	}
	out := make([][2]int, 0, len(aIdx)*len(bIdx))
	for _, i := range aIdx {
		for _, j := range bIdx {
			out = append(out, [2]int{i, j})
		}
	}
	return out
}

// AllPairs enumerates every unordered attribute index pair, both within
// and across languages.
func (td *TypeData) AllPairs() [][2]int {
	n := len(td.Attrs)
	out := make([][2]int, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out = append(out, [2]int{i, j})
		}
	}
	return out
}
