package text

import (
	"math"
	"testing"
)

// TestParseDate is the one table for the date grammar every consumer
// shares: matching terms (sim.ValueTerms), audit values (NormalizeValue)
// and query numbers all read dates through it.
func TestParseDate(t *testing.T) {
	cases := []struct {
		in   string
		want string // canonical ISO form; "" when in is not a date
	}{
		{"1950-12-18", "1950-12-18"},
		{"December 18, 1950", "1950-12-18"},
		{"December 18 1950", "1950-12-18"},
		{"18 de dezembro de 1950", "1950-12-18"},
		{"18 de Dezembro 1950", "1950-12-18"},
		{"18 tháng 12 năm 1950", "1950-12-18"},
		{"June 4 1975", "1975-06-04"},
		{"4 de junho de 1975", "1975-06-04"},
		{"1 de março de 2004", "2004-03-01"},
		{"May 7, 1971", "1971-05-07"},
		{"3 tháng 2 năm 1988", "1988-02-03"},
		// Shapes only one of the two former parsers read: the matcher
		// never read ISO, and the auditor never read a Portuguese date
		// missing its second "de" or a Vietnamese one missing "năm".
		{"1987-10-04", "1987-10-04"},
		{"18 de dezembro 1950", "1950-12-18"},
		{"18 tháng 12 1950", "1950-12-18"},
		{"just words", ""},
		{"1963", ""},
		{"160 minutes", ""},
		{"December 40, 1950", ""},
		{"0 de dezembro de 1950", ""},
		{"32 de dezembro de 1950", ""},
		{"1950-13-18", ""},
		{"1950-12-32", ""},
		{"0000-01-01", ""},
		{"978-0-123-45678-9", ""},
		{"1950/12/18", ""},
		{"18 de dezembro de 1950, Paris", ""},
	}
	for _, c := range cases {
		v, ok := ParseDate(Normalize(c.in))
		got := ""
		if ok {
			got = v.Canonical()
		}
		if got != c.want {
			t.Errorf("ParseDate(%q) = %q, want %q", c.in, got, c.want)
		}
		// NormalizeValue reads exactly the same dates.
		if nv := NormalizeValue(c.in); (nv.Kind == ValueDate) != ok || (ok && nv != v) {
			t.Errorf("NormalizeValue(%q) = %+v, ParseDate = %+v, %v", c.in, nv, v, ok)
		}
	}
}

func TestDateSpan(t *testing.T) {
	cases := []struct {
		parts []string
		i     int
		want  string
		span  int
	}{
		{[]string{"october 4", "1987", "paris"}, 0, "1987-10-04", 2},
		{[]string{"paris", "october 4", "1987"}, 1, "1987-10-04", 2},
		{[]string{"18 de dezembro de 1950", "1951"}, 0, "1950-12-18", 1},
		{[]string{"december 18 1950", ""}, 0, "1950-12-18", 1},
		{[]string{"1950-12-18", "1951"}, 0, "1950-12-18", 1},
		{[]string{"irlanda", "estados unidos"}, 0, "", 0},
		{[]string{"", "december 18 1950"}, 0, "", 0},
		{[]string{"october 4"}, 0, "", 0},
	}
	for _, c := range cases {
		v, span := DateSpan(c.parts, c.i)
		got := ""
		if span > 0 {
			got = v.Canonical()
		}
		if got != c.want || span != c.span {
			t.Errorf("DateSpan(%q, %d) = %q, %d; want %q, %d", c.parts, c.i, got, span, c.want, c.span)
		}
	}
}

func TestNormalizeValueDates(t *testing.T) {
	cases := []struct {
		in      string
		y, m, d int
	}{
		{"1950-12-18", 1950, 12, 18},
		{"December 18, 1950", 1950, 12, 18},
		{"18 de dezembro de 1950", 1950, 12, 18},
		{"18 tháng 12 năm 1950", 1950, 12, 18},
		{"1 de março de 2004", 2004, 3, 1},
		{"May 7, 1971", 1971, 5, 7},
		{"3 tháng 2 năm 1988", 1988, 2, 3},
	}
	for _, c := range cases {
		v := NormalizeValue(c.in)
		if v.Kind != ValueDate || v.Year != c.y || v.Month != c.m || v.Day != c.d {
			t.Errorf("NormalizeValue(%q) = %+v, want date %04d-%02d-%02d", c.in, v, c.y, c.m, c.d)
		}
	}
	// The three edition renderings of one date agree canonically.
	want := NormalizeValue("1950-12-18").Canonical()
	for _, in := range []string{"December 18, 1950", "18 de dezembro de 1950", "18 tháng 12 năm 1950"} {
		if got := NormalizeValue(in).Canonical(); got != want {
			t.Errorf("Canonical(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestNormalizeValueNotDates(t *testing.T) {
	for _, in := range []string{"1950-13-18", "1950-12-32", "32 de dezembro de 1950", "978-0-123-45678-9", "0000-01-01"} {
		if v := NormalizeValue(in); v.Kind == ValueDate {
			t.Errorf("NormalizeValue(%q) parsed as date %+v", in, v)
		}
	}
}

func TestNormalizeValueNumbers(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{"160", 160},
		{"-5", -5},
		{"1,234", 1234},
		{"1.234", 1234},
		{"1,234.5", 1234.5},
		{"1.234,5", 1234.5},
		{"1,234,567", 1234567},
		{"1.234.567", 1234567},
		{"12,5", 12.5},
		{"12.5", 12.5},
		{"1.2 million", 1.2e6},
		{"40 million", 4e7},
	}
	for _, c := range cases {
		v := NormalizeValue(c.in)
		if v.Kind != ValueNumber || math.Abs(v.Number-c.want) > 1e-9 {
			t.Errorf("NormalizeValue(%q) = %+v, want number %v", c.in, v, c.want)
		}
	}
}

func TestNormalizeValueQuantities(t *testing.T) {
	cases := []struct {
		in       string
		unit     string
		number   float64
		mantissa float64
	}{
		{"160 minutes", "min", 160, 160},
		{"160 min", "min", 160, 160},
		{"160 phút", "min", 160, 160},
		{"2 giờ", "min", 120, 2},
		{"2 hours", "min", 120, 2},
		{"$23 million", "usd", 23e6, 23},
		{"US$ 23 milhões", "usd", 23e6, 23},
		{"23 triệu USD", "usd", 23e6, 23},
		{"$12 billion", "usd", 12e9, 12},
		{"US$ 12 bilhões", "usd", 12e9, 12},
		{"12 tỷ USD", "usd", 12e9, 12},
		{"5 km", "m", 5000, 5},
		{"180 cm", "m", 1.8, 180},
		{"70 kg", "kg", 70, 70},
		{"3 tonnes", "kg", 3000, 3},
	}
	for _, c := range cases {
		v := NormalizeValue(c.in)
		if v.Kind != ValueQuantity || v.Unit != c.unit ||
			math.Abs(v.Number-c.number) > 1e-9 || math.Abs(v.Mantissa-c.mantissa) > 1e-9 {
			t.Errorf("NormalizeValue(%q) = %+v, want %v %s (mantissa %v)", c.in, v, c.number, c.unit, c.mantissa)
		}
	}
	// The three money renderings of one amount agree canonically.
	want := NormalizeValue("$23 million").Canonical()
	for _, in := range []string{"US$ 23 milhões", "23 triệu USD"} {
		if got := NormalizeValue(in).Canonical(); got != want {
			t.Errorf("Canonical(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestNormalizeValueText(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Francis Ford Coppola", "francis ford coppola"},
		{"França", "franca"},
		{"1940–1971", "1940–1971"},
		{"http://www.example.com", "http://www.example.com"},
		{"978-0-123-45678-9", "978-0-123-45678-9"},
		{"", ""},
	}
	for _, c := range cases {
		v := NormalizeValue(c.in)
		if v.Kind != ValueText || v.Text != c.want {
			t.Errorf("NormalizeValue(%q) = %+v, want text %q", c.in, v, c.want)
		}
	}
}

func TestNormalizeValueUnitMismatchShape(t *testing.T) {
	// A converted-unit rewrite keeps the mantissa and changes the scale —
	// the shape the audit detector keys on.
	a := NormalizeValue("160 minutes")
	b := NormalizeValue("160 giờ")
	if a.Unit != b.Unit {
		t.Fatalf("units differ: %q vs %q", a.Unit, b.Unit)
	}
	if a.Mantissa != b.Mantissa {
		t.Fatalf("mantissas differ: %v vs %v", a.Mantissa, b.Mantissa)
	}
	if a.Scale == b.Scale || a.Number == b.Number {
		t.Fatalf("scales should differ: %+v vs %+v", a, b)
	}
}

func TestCanonicalIdempotent(t *testing.T) {
	inputs := []string{
		"160 minutes", "US$ 23 milhões", "18 tháng 12 năm 1950",
		"1.234,5", "2.345", "-2.345", "1,5", "France", "", "0.000",
		"9999999999999999999999", "1.2 million",
	}
	for _, in := range inputs {
		c1 := NormalizeValue(in).Canonical()
		c2 := NormalizeValue(c1).Canonical()
		if c1 != c2 {
			t.Errorf("Canonical not idempotent for %q: %q → %q", in, c1, c2)
		}
	}
}

func FuzzNormalizeValue(f *testing.F) {
	seeds := []string{
		"1950-12-18", "December 18, 1950", "18 de dezembro de 1950",
		"18 tháng 12 năm 1950", "160 minutes", "160 min", "160 phút",
		"US$ 23 milhões", "23 triệu USD", "$12 billion", "12 tỷ USD",
		"1,234.5", "1.234,5", "1.234.567", "5 km", "70 kg", "2 giờ",
		"France", "1940–1971", "978-0-123-45678-9", "", "-5", "+3,25",
		"0.000", "2.345", "us$", "$", "million", "min", "1950-13-40",
		"18 de dezembro 1950", "18 tháng 12 1950", "December 18 1950",
		"1950/12/18", "may-18-1950",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v := NormalizeValue(s) // must never panic
		c1 := v.Canonical()
		w := NormalizeValue(c1)
		c2 := w.Canonical()
		if c1 != c2 {
			t.Fatalf("Canonical not a fixed point: %q → %q → %q", s, c1, c2)
		}
		if w.Kind != NormalizeValue(c2).Kind {
			t.Fatalf("kind unstable on canonical form %q", c2)
		}
	})
}
