// Package text provides the language-processing primitives the matching
// pipeline relies on: Unicode normalization with diacritic folding for
// Portuguese and Vietnamese, tokenization, character n-grams, string
// similarity functions (Levenshtein, trigram/Dice), and sparse
// term-frequency vectors with cosine similarity.
//
// Everything here is deliberately simple and deterministic: the paper's
// method does not depend on sophisticated NLP, only on consistent
// normalization so that the same surface string always produces the same
// key.
package text

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// foldTable maps accented Latin letters (as used by Portuguese and
// Vietnamese orthography) to their base ASCII letters. Vietnamese uses
// stacked diacritics (e.g. ệ, ở, ữ) which are all covered by their
// precomposed code points below.
var foldTable = map[rune]rune{
	// Latin-1 supplement + Latin Extended-A (covers Portuguese).
	'à': 'a', 'á': 'a', 'â': 'a', 'ã': 'a', 'ä': 'a', 'å': 'a',
	'è': 'e', 'é': 'e', 'ê': 'e', 'ë': 'e',
	'ì': 'i', 'í': 'i', 'î': 'i', 'ï': 'i',
	'ò': 'o', 'ó': 'o', 'ô': 'o', 'õ': 'o', 'ö': 'o',
	'ù': 'u', 'ú': 'u', 'û': 'u', 'ü': 'u',
	'ç': 'c', 'ñ': 'n', 'ý': 'y', 'ÿ': 'y',
	// Vietnamese base letters with horn/breve/stroke.
	'ă': 'a', 'đ': 'd', 'ĩ': 'i', 'ơ': 'o', 'ũ': 'u', 'ư': 'u',
	// Vietnamese tone-marked vowels (precomposed, Latin Extended Additional).
	'ạ': 'a', 'ả': 'a', 'ấ': 'a', 'ầ': 'a', 'ẩ': 'a', 'ẫ': 'a', 'ậ': 'a',
	'ắ': 'a', 'ằ': 'a', 'ẳ': 'a', 'ẵ': 'a', 'ặ': 'a',
	'ẹ': 'e', 'ẻ': 'e', 'ẽ': 'e', 'ế': 'e', 'ề': 'e', 'ể': 'e', 'ễ': 'e', 'ệ': 'e',
	'ỉ': 'i', 'ị': 'i',
	'ọ': 'o', 'ỏ': 'o', 'ố': 'o', 'ồ': 'o', 'ổ': 'o', 'ỗ': 'o', 'ộ': 'o',
	'ớ': 'o', 'ờ': 'o', 'ở': 'o', 'ỡ': 'o', 'ợ': 'o',
	'ụ': 'u', 'ủ': 'u', 'ứ': 'u', 'ừ': 'u', 'ử': 'u', 'ữ': 'u', 'ự': 'u',
	'ỳ': 'y', 'ỵ': 'y', 'ỷ': 'y', 'ỹ': 'y',
}

// FoldDiacritics replaces accented Latin letters with their base ASCII
// letters. Unknown runes pass through unchanged. ASCII input has nothing
// to fold and is returned as is.
func FoldDiacritics(s string) string {
	if isASCII(s) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range s {
		if f, ok := foldTable[r]; ok {
			b.WriteRune(f)
		} else if f, ok := foldTable[unicode.ToLower(r)]; ok {
			b.WriteRune(unicode.ToUpper(f))
		} else {
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Normalize lowercases s, folds diacritics, and collapses interior
// whitespace — the canonical form for attribute names, titles and value
// tokens throughout the pipeline.
func Normalize(s string) string {
	s = strings.ToLower(s)
	s = FoldDiacritics(s)
	if collapsed(s) {
		return s
	}
	return strings.Join(strings.Fields(s), " ")
}

// isASCII reports whether every byte of s is below utf8.RuneSelf.
func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// collapsed reports whether s already equals
// strings.Join(strings.Fields(s), " "): its only whitespace is single
// ' ' runes, each between two non-space runes.
func collapsed(s string) bool {
	afterSpace := true // the start of s counts as a space boundary
	for _, r := range s {
		space := unicode.IsSpace(r)
		if space && (r != ' ' || afterSpace) {
			return false
		}
		afterSpace = space
	}
	return !afterSpace || s == ""
}

// NormalizeKeepAccents lowercases and collapses whitespace but keeps
// diacritics, for display-oriented canonicalization.
func NormalizeKeepAccents(s string) string {
	return strings.Join(strings.Fields(strings.ToLower(s)), " ")
}

// Tokenize splits s into lowercase, diacritic-folded word tokens. A token
// is a maximal run of letters or digits; everything else separates tokens.
func Tokenize(s string) []string {
	s = Normalize(s)
	var tokens []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			tokens = append(tokens, cur.String())
			cur.Reset()
		}
	}
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			cur.WriteRune(r)
		} else {
			flush()
		}
	}
	flush()
	return tokens
}

// NGrams returns the character n-grams of the normalized string, padded
// with '#' at both ends (the padding makes prefix/suffix characters count,
// the convention used by COMA-style trigram matchers). It returns nil when
// n < 1; a string shorter than n after padding yields the padded string as
// its single gram.
func NGrams(s string, n int) []string {
	if n < 1 {
		return nil
	}
	runes := []rune("#" + Normalize(s) + "#")
	if len(runes) <= n {
		return []string{string(runes)}
	}
	grams := make([]string, 0, len(runes)-n+1)
	for i := 0; i+n <= len(runes); i++ {
		grams = append(grams, string(runes[i:i+n]))
	}
	return grams
}
