// Package audit implements cross-language consistency auditing: for
// every entity linked across editions, it compares the values of every
// matched attribute pair (the correspondence clusters built by
// internal/multi) using the typed value normalizers in internal/text,
// and produces a ranked inconsistency report.
//
// This is the production workload the schema matcher unlocks — the
// matcher says pt's "população" IS en's "population"; the auditor says
// the two editions disagree about its value (the paper's §1 motivating
// example: a running time of 160 minutes in one edition and 165 in
// another). Findings carry a confidence-weighted severity so that value
// disagreements reached through low-confidence correspondences rank
// below the same disagreement over a high-confidence match.
package audit

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/multi"
	"repro/internal/text"
	"repro/internal/wiki"
)

// Kind classifies one cross-edition disagreement.
type Kind string

// Disagreement kinds, from structural to fuzzy.
const (
	// Missing: one edition carries the attribute, a linked edition whose
	// infobox should carry a matched attribute does not.
	Missing Kind = "missing"
	// NumericDrift: both editions carry comparable magnitudes that
	// disagree (160 vs 165 minutes).
	NumericDrift Kind = "numeric-drift"
	// UnitMismatch: the written magnitudes agree but the units or scale
	// words do not ("23 million" vs "23 billion", minutes vs hours).
	UnitMismatch Kind = "unit-mismatch"
	// Contradiction: structured values (dates) or free text that no
	// resolution step could reconcile.
	Contradiction Kind = "contradiction"
)

// Value is one edition's observation of an audited attribute.
type Value struct {
	// Lang is the edition.
	Lang wiki.Language `json:"lang"`
	// Attr is the normalized surface attribute name ("" never occurs;
	// missing observations keep the expected cluster member's name).
	Attr string `json:"attr"`
	// Raw is the infobox text as written ("" for a missing observation).
	Raw string `json:"raw,omitempty"`
	// Norm is the canonical normalized rendering of Raw, comma-joined
	// per atom ("" for a missing observation).
	Norm string `json:"norm,omitempty"`
}

// Finding is one reported inconsistency: an entity, a correspondence
// cluster, the per-edition observations, and the classified
// disagreement.
type Finding struct {
	// Entity is the canonical entity key (the lexicographically smallest
	// "lang:Title" across the linked editions).
	Entity string `json:"entity"`
	// Titles lists the entity's article titles per audited edition.
	Titles map[wiki.Language]string `json:"titles"`
	// Cluster is the correspondence cluster id the compared attributes
	// belong to.
	Cluster int `json:"cluster"`
	// Kind classifies the disagreement.
	Kind Kind `json:"kind"`
	// Magnitude in [0, 1] grades how far apart the values are,
	// independent of match confidence.
	Magnitude float64 `json:"magnitude"`
	// Confidence is the bottleneck confidence of the correspondence
	// connecting the compared attributes.
	Confidence float64 `json:"confidence"`
	// Severity ranks the finding: Magnitude discounted by Confidence, so
	// low-confidence matches don't raise high-severity alarms.
	Severity float64 `json:"severity"`
	// Detail is a one-line human-readable explanation.
	Detail string `json:"detail"`
	// Values lists the per-edition observations behind the finding.
	Values []Value `json:"values"`
}

// Options tune a report.
type Options struct {
	// MinSeverity drops findings scoring below it.
	MinSeverity float64
	// Limit caps the report length after ranking (0 = unlimited).
	Limit int
}

// Report is the outcome of one audit run.
type Report struct {
	// Entities counts the cross-linked entity groups audited.
	Entities int `json:"entities"`
	// Compared counts cross-edition value comparisons performed.
	Compared int `json:"compared"`
	// Findings is ranked by severity descending (ties: entity, cluster).
	Findings []Finding `json:"findings"`
}

// severity folds correspondence confidence into a magnitude. The floor
// keeps even zero-confidence disagreements visible at half weight.
func severity(magnitude, confidence float64) float64 {
	return magnitude * (0.5 + 0.5*confidence)
}

// Run audits every cross-linked entity group in the corpus against the
// correspondence clusters and returns the ranked inconsistency report.
// The result is deterministic for a fixed corpus and cluster set.
func Run(c *wiki.Corpus, clusters []multi.Cluster, opts Options) *Report {
	a := &auditor{
		corpus:    c,
		clusters:  clusters,
		memberOf:  make(map[multi.Attr]int),
		confOf:    make(map[int]map[[2]multi.Attr]float64),
		anchors:   buildAnchorDict(c),
		typeNames: make(map[int]map[wiki.Language]map[string][]string),
	}
	for i := range clusters {
		cl := &clusters[i]
		names := make(map[wiki.Language]map[string][]string)
		for _, m := range cl.Members {
			a.memberOf[m] = i
			byType := names[m.Lang]
			if byType == nil {
				byType = make(map[string][]string)
				names[m.Lang] = byType
			}
			byType[m.Type] = append(byType[m.Type], m.Name)
		}
		a.typeNames[i] = names
		conf := make(map[[2]multi.Attr]float64)
		for _, corr := range cl.Correspondences {
			conf[[2]multi.Attr{corr.A, corr.B}] = corr.Confidence
			conf[[2]multi.Attr{corr.B, corr.A}] = corr.Confidence
		}
		a.confOf[i] = conf
	}

	report := &Report{}
	for _, group := range entityGroups(c) {
		report.Entities++
		a.auditGroup(group, report)
	}
	sort.Slice(report.Findings, func(i, j int) bool {
		x, y := &report.Findings[i], &report.Findings[j]
		if x.Severity != y.Severity {
			return x.Severity > y.Severity
		}
		if x.Entity != y.Entity {
			return x.Entity < y.Entity
		}
		return x.Cluster < y.Cluster
	})
	if opts.MinSeverity > 0 {
		keep := report.Findings[:0]
		for _, f := range report.Findings {
			if f.Severity >= opts.MinSeverity {
				keep = append(keep, f)
			}
		}
		report.Findings = keep
	}
	if opts.Limit > 0 && len(report.Findings) > opts.Limit {
		report.Findings = report.Findings[:opts.Limit]
	}
	return report
}

// auditor carries the indexes one Run builds once.
type auditor struct {
	corpus   *wiki.Corpus
	clusters []multi.Cluster
	// memberOf maps an attribute node to its cluster.
	memberOf map[multi.Attr]int
	// confOf holds per-cluster correspondence confidences, both
	// orientations.
	confOf map[int]map[[2]multi.Attr]float64
	// anchors is the corpus-wide anchor-text dictionary: per language,
	// the link target an anchor most often points to. It resolves
	// unlinked alias mentions ("USA") the way the paper's dictionary
	// builder resolves anchor heterogeneity.
	anchors map[wiki.Language]map[string]string
	// typeNames lists, per cluster, the member attribute names by
	// language and entity type (for missing-value detection).
	typeNames map[int]map[wiki.Language]map[string][]string
}

// entityGroups enumerates the cross-linked entity groups: connected
// components of the cross-language link graph restricted to articles
// with infoboxes, keyed deterministically.
func entityGroups(c *wiki.Corpus) []map[wiki.Language]*wiki.Article {
	seen := make(map[wiki.Key]bool)
	var groups []map[wiki.Language]*wiki.Article
	for _, lang := range c.Languages() {
		for _, a := range c.Articles(lang) {
			if a.Infobox == nil || seen[a.Key()] {
				continue
			}
			group := map[wiki.Language]*wiki.Article{a.Language: a}
			queue := []*wiki.Article{a}
			for len(queue) > 0 {
				cur := queue[0]
				queue = queue[1:]
				for _, link := range cur.SortedCrossLinks() {
					if _, ok := group[link.Language]; ok {
						continue
					}
					other, ok := c.Get(link.Language, link.Title)
					if !ok || other.Infobox == nil {
						continue
					}
					group[link.Language] = other
					queue = append(queue, other)
				}
			}
			for _, art := range group {
				seen[art.Key()] = true
			}
			if len(group) >= 2 {
				groups = append(groups, group)
			}
		}
	}
	return groups
}

// buildAnchorDict scans every value link in the corpus and records, per
// language, the target each anchor text most often names (ties break
// lexicographically).
func buildAnchorDict(c *wiki.Corpus) map[wiki.Language]map[string]string {
	type vote struct {
		target string
		n      int
	}
	counts := make(map[wiki.Language]map[string]map[string]int)
	for _, lang := range c.Languages() {
		byAnchor := make(map[string]map[string]int)
		counts[lang] = byAnchor
		for _, a := range c.Articles(lang) {
			if a.Infobox == nil {
				continue
			}
			for _, av := range a.Infobox.Attrs {
				for _, l := range av.Links {
					if l.Anchor == "" || l.Anchor == l.Target {
						continue
					}
					m := byAnchor[l.Anchor]
					if m == nil {
						m = make(map[string]int)
						byAnchor[l.Anchor] = m
					}
					m[l.Target]++
				}
			}
		}
	}
	out := make(map[wiki.Language]map[string]string, len(counts))
	for lang, byAnchor := range counts {
		dict := make(map[string]string, len(byAnchor))
		for anchor, targets := range byAnchor {
			best := vote{}
			for target, n := range targets {
				if n > best.n || (n == best.n && target < best.target) {
					best = vote{target, n}
				}
			}
			dict[anchor] = best.target
		}
		out[lang] = dict
	}
	return out
}

// part is one comma-separated component of a value, with its typed
// normal form and the link target its anchor carries, if any.
type part struct {
	raw    string
	norm   text.NormalizedValue
	target string
}

// observation is one edition's value for one cluster attribute.
type observation struct {
	lang  wiki.Language
	attr  string // normalized surface name
	raw   string
	parts []part
}

func (o *observation) normString() string {
	outs := make([]string, len(o.parts))
	for i, p := range o.parts {
		outs[i] = p.norm.Canonical()
	}
	return strings.Join(outs, ", ")
}

// splitValue cuts a raw infobox value into ", " parts, re-merges the
// English dates the split cuts at their comma ("September 9, 1958"), and
// attaches link targets by anchor text.
func splitValue(av wiki.AttributeValue) []part {
	targets := make(map[string]string, len(av.Links))
	for _, l := range av.Links {
		if _, ok := targets[l.Anchor]; !ok {
			targets[l.Anchor] = l.Target
		}
	}
	raws := strings.Split(av.Text, ", ")
	norms := make([]string, len(raws))
	for i, r := range raws {
		norms[i] = text.Normalize(r)
	}
	parts := make([]part, 0, len(raws))
	for i := 0; i < len(raws); i++ {
		if raws[i] == "" {
			continue
		}
		norm, span := text.DateSpan(norms, i)
		if span == 0 {
			norm, span = text.NormalizeValue(raws[i]), 1
		}
		r := strings.Join(raws[i:i+span], ", ")
		parts = append(parts, part{raw: r, norm: norm, target: targets[r]})
		i += span - 1
	}
	return parts
}

// auditGroup audits one cross-linked entity group against every cluster
// it has observations for.
func (a *auditor) auditGroup(group map[wiki.Language]*wiki.Article, report *Report) {
	langs := make([]wiki.Language, 0, len(group))
	for l := range group {
		langs = append(langs, l)
	}
	sort.Slice(langs, func(i, j int) bool { return langs[i] < langs[j] })

	entity := string(langs[0]) + ":" + group[langs[0]].Title
	for _, l := range langs {
		if k := group[l].Key().String(); k < entity {
			entity = k
		}
	}
	titles := make(map[wiki.Language]string, len(langs))
	for _, l := range langs {
		titles[l] = group[l].Title
	}

	// Collect observations per cluster.
	obs := make(map[int]map[wiki.Language][]observation)
	var clusterIDs []int
	for _, lang := range langs {
		art := group[lang]
		for _, av := range art.Infobox.Attrs {
			name := text.Normalize(av.Name)
			ci, ok := a.memberOf[multi.Attr{Lang: lang, Type: art.Type, Name: name}]
			if !ok {
				continue
			}
			byLang := obs[ci]
			if byLang == nil {
				byLang = make(map[wiki.Language][]observation)
				obs[ci] = byLang
				clusterIDs = append(clusterIDs, ci)
			}
			byLang[lang] = append(byLang[lang], observation{
				lang: lang, attr: name, raw: av.Text, parts: splitValue(av),
			})
		}
	}
	sort.Ints(clusterIDs)

	for _, ci := range clusterIDs {
		if f, compared := a.auditCluster(group, langs, ci, obs[ci]); true {
			report.Compared += compared
			if f != nil {
				f.Entity = entity
				f.Titles = titles
				report.Findings = append(report.Findings, *f)
			}
		}
	}
}

// auditCluster compares one entity's observations for one cluster across
// editions and returns the most severe disagreement, if any.
func (a *auditor) auditCluster(group map[wiki.Language]*wiki.Article, langs []wiki.Language, ci int, byLang map[wiki.Language][]observation) (*Finding, int) {
	obsLangs := make([]wiki.Language, 0, len(byLang))
	for l := range byLang {
		obsLangs = append(obsLangs, l)
	}
	sort.Slice(obsLangs, func(i, j int) bool { return obsLangs[i] < obsLangs[j] })

	compared := 0
	var worst *Finding
	consider := func(f *Finding) {
		if f == nil {
			return
		}
		if worst == nil || f.Severity > worst.Severity {
			worst = f
		}
	}

	// Cross-edition value comparison over every observed language pair.
	for i, la := range obsLangs {
		for _, lb := range obsLangs[i+1:] {
			compared++
			consider(a.comparePair(group, ci, la, byLang[la], lb, byLang[lb]))
		}
	}

	// Missing values: an edition whose infobox type has matched
	// attribute names in this cluster but observed none of them, while a
	// linked edition did.
	if len(obsLangs) > 0 {
		for _, l := range langs {
			if len(byLang[l]) > 0 {
				continue
			}
			names := a.typeNames[ci][l][group[l].Type]
			if len(names) == 0 {
				continue
			}
			sort.Strings(names)
			other := obsLangs[0]
			ref := byLang[other][0]
			conf := a.pairConfidence(ci, multi.Attr{Lang: l, Type: group[l].Type, Name: names[0]},
				multi.Attr{Lang: other, Type: group[other].Type, Name: ref.attr})
			mag := 0.3
			f := &Finding{
				Cluster:    ci,
				Kind:       Missing,
				Magnitude:  mag,
				Confidence: conf,
				Severity:   severity(mag, conf),
				Detail: fmt.Sprintf("%s has no %q while %s has %q = %q",
					l, names[0], other, ref.attr, ref.raw),
				Values: []Value{
					{Lang: l, Attr: names[0]},
					{Lang: other, Attr: ref.attr, Raw: ref.raw, Norm: ref.normString()},
				},
			}
			consider(f)
		}
	}
	return worst, compared
}

// pairConfidence looks up the correspondence confidence between two
// member nodes (max over orientations; 0 when the cluster connects them
// only through nodes outside these exact attrs).
func (a *auditor) pairConfidence(ci int, x, y multi.Attr) float64 {
	return a.confOf[ci][[2]multi.Attr{x, y}]
}

// comparePair compares two editions' observations for one cluster. With
// several observations per side (intra-language synonym attributes) the
// least severe pairing wins: the editions agree if any pairing agrees.
func (a *auditor) comparePair(group map[wiki.Language]*wiki.Article, ci int, la wiki.Language, oa []observation, lb wiki.Language, ob []observation) *Finding {
	var best *Finding
	agreed := false
	for _, x := range oa {
		for _, y := range ob {
			kind, mag, detail := a.compareValues(group, la, x, lb, y)
			if kind == "" {
				agreed = true
				continue
			}
			conf := a.pairConfidence(ci,
				multi.Attr{Lang: la, Type: group[la].Type, Name: x.attr},
				multi.Attr{Lang: lb, Type: group[lb].Type, Name: y.attr})
			f := &Finding{
				Cluster:    ci,
				Kind:       kind,
				Magnitude:  mag,
				Confidence: conf,
				Severity:   severity(mag, conf),
				Detail:     detail,
				Values: []Value{
					{Lang: la, Attr: x.attr, Raw: x.raw, Norm: x.normString()},
					{Lang: lb, Attr: y.attr, Raw: y.raw, Norm: y.normString()},
				},
			}
			if best == nil || f.Severity < best.Severity {
				best = f
			}
		}
	}
	if agreed {
		return nil
	}
	return best
}

// compareValues compares two observations part-wise. It returns kind ""
// when the values are consistent; otherwise the dominant disagreement
// with its magnitude and a human-readable detail line.
func (a *auditor) compareValues(group map[wiki.Language]*wiki.Article, la wiki.Language, x observation, lb wiki.Language, y observation) (Kind, float64, string) {
	pa, pb := x.parts, y.parts
	if len(pa) == 0 || len(pb) == 0 {
		return "", 0, ""
	}
	usedB := make([]bool, len(pb))
	var unmatchedA []part
	for _, p := range pa {
		matched := false
		for j := range pb {
			if usedB[j] {
				continue
			}
			if ok, _, _ := a.matchParts(group, la, p, lb, pb[j]); ok {
				usedB[j] = true
				matched = true
				break
			}
		}
		if !matched {
			unmatchedA = append(unmatchedA, p)
		}
	}
	var unmatchedB []part
	for j := range pb {
		if !usedB[j] {
			unmatchedB = append(unmatchedB, pb[j])
		}
	}
	if len(unmatchedA) == 0 || len(unmatchedB) == 0 {
		// Fully matched, or only surplus atoms on one side (dropped or
		// misfiled atoms — noise, not a value contradiction).
		return "", 0, ""
	}
	// Pair leftovers, preferring same-kind counterparts, and report the
	// most severe disagreement.
	var kind Kind
	var mag float64
	detail := ""
	for _, p := range unmatchedA {
		q, ok := closestKind(p, unmatchedB)
		if !ok {
			continue
		}
		_, k, m := a.matchParts(group, la, p, lb, q)
		if k != "" && m > mag {
			kind, mag = k, m
			detail = fmt.Sprintf("%s %s=%q vs %s %s=%q (%s)", la, x.attr, p.raw, lb, y.attr, q.raw, k)
		}
	}
	if kind == "" {
		return "", 0, ""
	}
	return kind, mag, detail
}

// closestKind picks the candidate whose value kind matches p's, falling
// back to the first candidate.
func closestKind(p part, candidates []part) (part, bool) {
	if len(candidates) == 0 {
		return part{}, false
	}
	for _, q := range candidates {
		if q.norm.Kind == p.norm.Kind {
			return q, true
		}
	}
	return candidates[0], true
}

// matchParts compares two value parts. consistent reports agreement;
// otherwise kind and magnitude classify the disagreement.
func (a *auditor) matchParts(group map[wiki.Language]*wiki.Article, la wiki.Language, p part, lb wiki.Language, q part) (consistent bool, kind Kind, mag float64) {
	np, nq := p.norm, q.norm
	numeric := func(v text.NormalizedValue) bool {
		return v.Kind == text.ValueNumber || v.Kind == text.ValueQuantity
	}
	switch {
	case np.Kind == text.ValueDate && nq.Kind == text.ValueDate:
		if np.Year == nq.Year && np.Month == nq.Month && np.Day == nq.Day {
			return true, "", 0
		}
		return false, Contradiction, 1
	case numeric(np) && numeric(nq):
		if np.Kind == text.ValueQuantity && nq.Kind == text.ValueQuantity && np.Unit != nq.Unit {
			return false, UnitMismatch, 1
		}
		if approxEqual(np.Number, nq.Number) {
			return true, "", 0
		}
		if approxEqual(np.Mantissa, nq.Mantissa) && np.Scale != nq.Scale {
			return false, UnitMismatch, 1
		}
		rel := math.Abs(np.Number-nq.Number) / math.Max(math.Abs(np.Number), math.Abs(nq.Number))
		return false, NumericDrift, 0.7 + 0.3*math.Min(1, rel)
	case np.Kind == text.ValueDate && numeric(nq):
		if nq.Scale == 1 && approxEqual(nq.Number, float64(np.Year)) {
			return true, "", 0
		}
		return false, Contradiction, 0.8
	case numeric(np) && nq.Kind == text.ValueDate:
		if np.Scale == 1 && approxEqual(np.Number, float64(nq.Year)) {
			return true, "", 0
		}
		return false, Contradiction, 0.8
	default:
		return a.matchText(group, la, p, lb, q)
	}
}

// matchText reconciles two free-text parts: exact canonical equality,
// the entity's own title, cross-language link resolution (direct links,
// article-title lookup, the anchor dictionary), then string similarity.
// Unreconciled text caps at magnitude 0.45 — translation and aliasing
// make free text inherently fuzzier evidence than numbers or dates.
func (a *auditor) matchText(group map[wiki.Language]*wiki.Article, la wiki.Language, p part, lb wiki.Language, q part) (bool, Kind, float64) {
	ca, cb := p.norm.Canonical(), q.norm.Canonical()
	if ca == cb {
		return true, "", 0
	}
	// The "name"-style attribute holds each edition's own (translated)
	// title; different surfaces are not a contradiction.
	if p.raw == group[la].Title && q.raw == group[lb].Title {
		return true, "", 0
	}
	ta, okA := a.resolveTitle(la, p)
	tb, okB := a.resolveTitle(lb, q)
	if okA {
		if x, ok := a.crossTitle(la, ta, lb); ok && (x == tb || x == q.raw) {
			return true, "", 0
		}
	}
	if okB {
		if x, ok := a.crossTitle(lb, tb, la); ok && (x == ta || x == p.raw) {
			return true, "", 0
		}
	}
	sim := math.Max(text.TrigramSimilarity(ca, cb), text.JaccardTokens(ca, cb))
	if sim >= 0.5 {
		return true, "", 0
	}
	return false, Contradiction, 0.45 * (1 - sim)
}

// resolveTitle maps a value part to the article title it names in its
// own language: the link target when linked, the part itself when it
// titles an article, else the anchor dictionary.
func (a *auditor) resolveTitle(lang wiki.Language, p part) (string, bool) {
	if p.target != "" {
		return p.target, true
	}
	if _, ok := a.corpus.Get(lang, p.raw); ok {
		return p.raw, true
	}
	if t, ok := a.anchors[lang][p.raw]; ok {
		return t, true
	}
	return "", false
}

// crossTitle follows cross-language links from (lang, title) to the
// other edition, in either direction.
func (a *auditor) crossTitle(lang wiki.Language, title string, other wiki.Language) (string, bool) {
	if art, ok := a.corpus.Get(lang, title); ok {
		if x, ok := art.CrossLink(other); ok {
			return x, true
		}
	}
	if x, ok := a.corpus.ReverseCrossLink(lang, title, other); ok {
		return x, true
	}
	return "", false
}

// approxEqual compares magnitudes with a tiny relative tolerance.
func approxEqual(x, y float64) bool {
	if x == y {
		return true
	}
	d := math.Abs(x - y)
	return d <= 1e-9*math.Max(math.Abs(x), math.Abs(y))
}
