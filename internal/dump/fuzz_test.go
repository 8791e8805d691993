package dump

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzDumpReader drives arbitrary bytes through the streaming XML
// Reader, the decoder behind dump loading. Whatever the input, Next and
// All must not panic, All must terminate having decoded no more pages
// than the bytes can hold, and once Next reports io.EOF it keeps doing
// so. Separately, a title and text made only of valid XML characters
// must round-trip unchanged through Writer → Reader.
func FuzzDumpReader(f *testing.F) {
	var seed bytes.Buffer
	w := NewWriter(&seed, "pt")
	if err := w.WritePage("Cidade de Deus", "{{Info/Filme\n| título = Cidade de Deus\n| país = [[Brasil]]\n}}"); err != nil {
		f.Fatal(err)
	}
	if err := w.WritePage("A & <B>", "tab\there\r\nand \"quotes\""); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes(), "Cidade de Deus", "{{Info/Filme}}")
	for _, doc := range []string{
		"",
		`<mediawiki xml:lang="vi"><siteinfo><lang>vi</lang></siteinfo><page/></mediawiki>`,
		`<mediawiki><page><title>X</title><redirect title="Y"/><revision><text>a</text></revision><revision><text>b</text></revision></page>`,
		`<page><title>X</title><ns>not a number</ns></page>`,
		`<mediawiki><page><title>X</title></mediawiki>`,
		`<?xml version="1.0"?><a:page xmlns:a="u"><a:title>Q</a:title></a:page><page/><page/>`,
		"<page><title>\x00</title></page>",
	} {
		f.Add([]byte(doc), "X", "")
	}

	f.Fuzz(func(t *testing.T, data []byte, title, text string) {
		r := NewReader(bytes.NewReader(data))
		pages, err := r.All()
		if err == nil {
			// Each page needs at least a "<page/>" in the input.
			if max := len(data) / len("<page/>"); len(pages) > max {
				t.Fatalf("All decoded %d pages from %d bytes", len(pages), len(data))
			}
			for i := 0; i < 2; i++ {
				if _, err := r.Next(); err != io.EOF {
					t.Fatalf("Next after io.EOF = %v, want io.EOF", err)
				}
			}
		}

		if !validXML(title) || !validXML(text) {
			return
		}
		var buf bytes.Buffer
		w := NewWriter(&buf, "en")
		if err := w.WritePage(title, text); err != nil {
			t.Fatalf("WritePage: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		got, err := NewReader(&buf).All()
		if err != nil {
			t.Fatalf("reading back a written page: %v\n%s", err, buf.Bytes())
		}
		if len(got) != 1 || got[0].Title != title || got[0].Text != text || got[0].NS != 0 || got[0].ID != 1 {
			t.Fatalf("round trip of (%q, %q) = %+v", title, text, got)
		}
	})
}

// validXML reports whether s is valid UTF-8 made only of characters the
// XML 1.0 Char production allows.
func validXML(s string) bool {
	if !utf8.ValidString(s) {
		return false
	}
	return !strings.ContainsFunc(s, func(r rune) bool {
		return !(r == '\t' || r == '\n' || r == '\r' ||
			(r >= 0x20 && r <= 0xD7FF) || (r >= 0xE000 && r <= 0xFFFD) ||
			(r >= 0x10000 && r <= 0x10FFFF))
	})
}
