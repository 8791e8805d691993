package text

import (
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// foldRef and normalizeRef are FoldDiacritics and Normalize without
// the ASCII and already-collapsed fast paths: every rune goes through
// the fold table, and every result through Fields and Join.
func foldRef(s string) string {
	var b strings.Builder
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

func normalizeRef(s string) string {
	return strings.Join(strings.Fields(foldRef(strings.ToLower(s))), " ")
}

// TestFoldTableHasNoASCIIKeys holds the premise of FoldDiacritics' fast
// path: no ASCII rune, nor its lowercase, is ever rewritten.
func TestFoldTableHasNoASCIIKeys(t *testing.T) {
	for r := range foldTable {
		if r < utf8.RuneSelf {
			t.Errorf("fold table maps ASCII %q", r)
		}
	}
}

func TestNormalizeFastPath(t *testing.T) {
	for _, c := range []struct{ name, in, want string }{
		{"empty", "", ""},
		{"ascii collapsed", "release date", "release date"},
		{"ascii upper", "Release Date", "release date"},
		{"ascii padded", "  release   date ", "release date"},
		{"ascii tab", "release\tdate", "release date"},
		{"ascii newline", "release\ndate", "release date"},
		{"ascii only space", " ", ""},
		{"ascii punctuation", "a-b (c), d", "a-b (c), d"},
		{"pt", "Direção de Arte", "direcao de arte"},
		{"pt upper", "CÔNJUGE", "conjuge"},
		{"vi", "Đạo diễn", "dao dien"},
		{"vi stacked", "ngày phát hành", "ngay phat hanh"},
		{"mixed", "Film Ação  2010", "film acao 2010"},
		{"nbsp", "a b", "a b"},
		{"ideographic space", "a　b", "a b"},
		{"trailing nbsp", "ab ", "ab"},
		{"cjk", "映画 監督", "映画 監督"},
		{"invalid utf8", "a\xffb", "a�b"},
		{"invalid utf8 spaced", " \xc3 x ", "� x"},
		{"truncated rune", "cafe\xc3", "cafe�"},
	} {
		got := Normalize(c.in)
		if got != c.want {
			t.Errorf("%s: Normalize(%q) = %q, want %q", c.name, c.in, got, c.want)
		}
		if ref := normalizeRef(c.in); got != ref {
			t.Errorf("%s: Normalize(%q) = %q, reference %q", c.name, c.in, got, ref)
		}
		if got, ref := FoldDiacritics(c.in), foldRef(c.in); got != ref {
			t.Errorf("%s: FoldDiacritics(%q) = %q, reference %q", c.name, c.in, got, ref)
		}
	}
}

// FuzzNormalizeFastPath checks Normalize and FoldDiacritics against the
// reference implementations on arbitrary bytes, invalid UTF-8 included.
func FuzzNormalizeFastPath(f *testing.F) {
	for _, s := range []string{
		"", "release date", "  Release\tDate ", "Direção", "đạo diễn",
		"a b", "a\xffb", "\xc3", "x   y", "ÉÃÇ",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, ref := Normalize(s), normalizeRef(s); got != ref {
			t.Errorf("Normalize(%q) = %q, reference %q", s, got, ref)
		}
		if got, ref := FoldDiacritics(s), foldRef(s); got != ref {
			t.Errorf("FoldDiacritics(%q) = %q, reference %q", s, got, ref)
		}
	})
}
