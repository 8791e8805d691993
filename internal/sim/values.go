// Package sim computes the similarity evidence WikiMatch combines
// (Section 3.2): cross-language value similarity (vsim) over
// dictionary-translated value vectors, link-structure similarity (lsim)
// over cross-language-resolved link targets, the grouping score g and
// inductive grouping score eg of the ReviseUncertain step (Section 3.4),
// and the alternative correlation measures X1, X2, X3 of Appendix B.
package sim

import (
	"strings"

	"repro/internal/text"
	"repro/internal/wiki"
)

// ValueTerms splits an attribute's raw value text into normalized value
// terms — the components of the paper's value vectors. Values are split
// on commas outside parentheses; date expressions, including English
// dates the split cut at their comma, are read by text.DateSpan and
// contribute their ISO form.
func ValueTerms(lang wiki.Language, value string) []string {
	segs := splitValue(value)
	for i, seg := range segs {
		segs[i] = text.Normalize(seg)
	}
	var terms []string
	for i := 0; i < len(segs); i++ {
		n := segs[i]
		if n == "" {
			continue
		}
		if d, span := text.DateSpan(segs, i); span > 0 {
			// A date contributes both its full ISO form and its year: the
			// year survives day-level inconsistencies between language
			// editions (the paper's running-time/date noise, §1).
			iso := d.Canonical()
			terms = append(terms, iso, iso[:4])
			i += span - 1
			continue
		}
		// A "<number> <unit>" segment ("160 minutes" / "160 min" /
		// "160 phút") reduces to its language-independent number.
		if toks := strings.Fields(n); len(toks) == 2 && isDigits(toks[0]) && !isDigits(toks[1]) {
			terms = append(terms, toks[0])
			continue
		}
		terms = append(terms, n)
		// Other segments containing numbers ("US$ 23 milhões") also
		// contribute their digit runs, which survive translation.
		for _, run := range digitRuns(n) {
			if run != n {
				terms = append(terms, run)
			}
		}
	}
	return terms
}

// RawValueTerms splits a value into plain normalized comma segments,
// with none of the date/number canonicalization ValueTerms performs.
// This is the representation generic instance matchers (the COMA++
// baseline) work with; the canonicalization above is part of WikiMatch's
// own value pipeline.
func RawValueTerms(value string) []string {
	var terms []string
	for _, seg := range splitValue(value) {
		if n := text.Normalize(seg); n != "" {
			terms = append(terms, n)
		}
	}
	return terms
}

func isDigits(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// digitRuns returns the maximal digit substrings of s, in order.
func digitRuns(s string) []string {
	var runs []string
	start := -1
	for i := 0; i <= len(s); i++ {
		isD := i < len(s) && s[i] >= '0' && s[i] <= '9'
		if isD && start < 0 {
			start = i
		}
		if !isD && start >= 0 {
			runs = append(runs, s[start:i])
			start = -1
		}
	}
	return runs
}

// splitValue splits on commas that are not inside parentheses.
func splitValue(s string) []string {
	var parts []string
	depth, last := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			if depth > 0 {
				depth--
			}
		case ',':
			if depth == 0 {
				parts = append(parts, s[last:i])
				last = i + 1
			}
		}
	}
	parts = append(parts, s[last:])
	return parts
}
