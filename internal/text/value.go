package text

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// ValueKind is the domain NormalizeValue recognized for an infobox value.
type ValueKind int

// Value domains, from most to least structured.
const (
	// ValueText is the fallback: free text compared by token/trigram
	// similarity.
	ValueText ValueKind = iota
	// ValueNumber is a bare magnitude (possibly written with a scale word:
	// "1.2 million").
	ValueNumber
	// ValueDate is a calendar date parsed from one of the edition formats.
	ValueDate
	// ValueQuantity is a magnitude with a unit (duration, length, mass,
	// currency-tagged amount), converted to a canonical base unit.
	ValueQuantity
)

// String names the kind for diagnostics and wire DTOs.
func (k ValueKind) String() string {
	switch k {
	case ValueNumber:
		return "number"
	case ValueDate:
		return "date"
	case ValueQuantity:
		return "quantity"
	default:
		return "text"
	}
}

// NormalizedValue is the typed normal form of one infobox value atom.
// Two values from different language editions describe the same fact
// exactly when their Canonical renderings agree; Mantissa and Scale keep
// the as-written decomposition so a detector can tell a wrong unit
// ("23 billion" for "23 million": same mantissa, different scale) from
// plain numeric drift.
type NormalizedValue struct {
	// Kind is the recognized domain.
	Kind ValueKind
	// Number is the canonical magnitude in the base unit (minutes, meters,
	// kilograms, dollars) for ValueNumber and ValueQuantity.
	Number float64
	// Mantissa is the number as written, before unit/scale conversion.
	Mantissa float64
	// Scale is the factor from the written form to the base unit
	// (1e9 for "billion", 60 for "hours"); 1 when written in base units.
	Scale float64
	// Unit is the canonical base unit ("min", "m", "kg", "usd") for
	// ValueQuantity; empty otherwise.
	Unit string
	// Year, Month, Day hold the calendar date for ValueDate.
	Year, Month, Day int
	// Text is the normalized surface form for ValueText.
	Text string
}

// Canonical renders the value in its language-neutral normal form. The
// rendering is a fixed point: NormalizeValue(v.Canonical()).Canonical()
// equals v.Canonical() for every input (the property FuzzNormalizeValue
// checks).
func (v NormalizedValue) Canonical() string {
	switch v.Kind {
	case ValueNumber:
		return formatNumber(v.Number)
	case ValueQuantity:
		return formatNumber(v.Number) + " " + v.Unit
	case ValueDate:
		return fmt.Sprintf("%04d-%02d-%02d", v.Year, v.Month, v.Day)
	default:
		return v.Text
	}
}

// NormalizeValue parses one infobox value atom into its typed normal
// form: dates in any edition's convention (ParseDate: ISO "1950-12-18",
// English "December 18, 1950", Portuguese "18 de dezembro de 1950",
// Vietnamese "18 tháng 12 năm 1950"), numbers with locale-aware
// thousand/decimal separators ("1,234.5" and "1.234,5" both mean 1234.5),
// and magnitudes carrying units or scale words ("160 min", "2 giờ",
// "US$ 23 milhões", "23 triệu USD", "5 km"). Anything else falls back to
// normalized free text. It never panics on any input.
func NormalizeValue(raw string) NormalizedValue {
	norm := Normalize(raw)
	if norm == "" {
		return NormalizedValue{Kind: ValueText, Text: ""}
	}
	if v, ok := ParseDate(norm); ok {
		return v
	}
	if v, ok := parseNumeric(norm); ok {
		return v
	}
	return NormalizedValue{Kind: ValueText, Text: norm}
}

// formatNumber renders a finite float in the canonical form parseNumeric
// reads back to the same value. A lone '.' followed by exactly three
// digits would re-parse as a thousands separator, so that one ambiguous
// shape gets a trailing zero appended ("2.345" → "2.3450").
func formatNumber(x float64) string {
	s := strconv.FormatFloat(x, 'f', -1, 64)
	if dot := strings.IndexByte(s, '.'); dot >= 0 {
		intDigits := dot
		if s[0] == '-' {
			intDigits--
		}
		if intDigits <= 3 && len(s)-dot-1 == 3 {
			s += "0"
		}
	}
	return s
}

// monthTable maps folded lowercase month names (English and Portuguese;
// Vietnamese months are numeric "tháng M") to their ordinal.
var monthTable = map[string]int{
	"january": 1, "february": 2, "march": 3, "april": 4, "may": 5,
	"june": 6, "july": 7, "august": 8, "september": 9, "october": 10,
	"november": 11, "december": 12,
	"janeiro": 1, "fevereiro": 2, "marco": 3, "abril": 4, "maio": 5,
	"junho": 6, "julho": 7, "agosto": 8, "setembro": 9, "outubro": 10,
	"novembro": 11, "dezembro": 12,
}

// ParseDate recognizes one calendar date written in any edition's
// convention, over Normalize'd text, and returns it as a ValueDate:
//
//	ISO:        "1950-12-18"
//	English:    "December 18, 1950" / "December 18 1950"
//	Portuguese: "18 de dezembro de 1950" / "18 de Dezembro 1950"
//	Vietnamese: "18 tháng 12 năm 1950" / "18 tháng 12 1950"
//
// This plays the role the paper's title dictionary plays for date values
// (day-month pages are cross-linked articles in Wikipedia): the three
// renderings of one date share one canonical form. Years run 1–9999, so
// the canonical "YYYY-MM-DD" always reads back as the same date.
func ParseDate(norm string) (NormalizedValue, bool) {
	var t dateTokens
	if !t.scan(norm) {
		return NormalizedValue{}, false
	}
	return t.date(t.dashed(norm))
}

// DateSpan is the re-merge rule for comma-split values: English dates
// carry an internal comma ("October 4, 1987"), so a split cuts them in
// two. It reports whether parts[i] joined with parts[i+1], or else
// parts[i] alone, spells one date, and how many parts that date spans
// (0 when parts[i] starts none). parts must be Normalize'd; each is
// tokenized once per call.
func DateSpan(parts []string, i int) (NormalizedValue, int) {
	var t dateTokens
	if parts[i] == "" || !t.scan(parts[i]) {
		return NormalizedValue{}, 0
	}
	if i+1 < len(parts) && parts[i+1] != "" {
		if joined := t; joined.scan(parts[i+1]) {
			if v, ok := joined.date(false); ok {
				return v, 2
			}
		}
	}
	if v, ok := t.date(t.dashed(parts[i])); ok {
		return v, 1
	}
	return NormalizedValue{}, 0
}

// dateTokens is the token stream the date grammar reads: the letter and
// digit runs of normalized text, minus the connectives "de" (Portuguese)
// and "nam" (Vietnamese "năm"). Punctuation only separates runs.
type dateTokens struct {
	tok  [5]string
	n    int // tokens kept
	runs int // runs seen, connectives included
}

// maxDateRuns bounds a date's runs: "18 tháng 12 năm 1950" has five.
const maxDateRuns = 5

// scan appends the runs of norm, reporting false once the stream holds
// more runs than any date has.
func (t *dateTokens) scan(norm string) bool {
	for i := 0; i < len(norm); {
		r, w := utf8.DecodeRuneInString(norm[i:])
		if !isWordRune(r) {
			i += w
			continue
		}
		j := i + w
		for j < len(norm) {
			r, w := utf8.DecodeRuneInString(norm[j:])
			if !isWordRune(r) {
				break
			}
			j += w
		}
		if t.runs++; t.runs > maxDateRuns {
			return false
		}
		if run := norm[i:j]; run != "de" && run != "nam" {
			t.tok[t.n] = run
			t.n++
		}
		i = j
	}
	return true
}

// dashed reports whether norm, the single string scanned into t, is
// exactly three runs joined by single '-' — the ISO shape.
func (t *dateTokens) dashed(norm string) bool {
	a, b, c := len(t.tok[0]), len(t.tok[1]), len(t.tok[2])
	return t.runs == 3 && t.n == 3 && len(norm) == a+b+c+2 &&
		norm[a] == '-' && norm[a+1+b] == '-'
}

// date reads the token stream as [month day year] (English), [day month
// year] (Portuguese), [day "thang" month year] (Vietnamese), or, when the
// input was dashed, [year month day] (ISO, four-digit year).
func (t *dateTokens) date(dashed bool) (NormalizedValue, bool) {
	tok := &t.tok
	var y, m, d int
	switch {
	case t.n == 3 && monthTable[tok[0]] > 0:
		m, d, y = monthTable[tok[0]], dateField(tok[1]), dateField(tok[2])
	case t.n == 3 && monthTable[tok[1]] > 0:
		d, m, y = dateField(tok[0]), monthTable[tok[1]], dateField(tok[2])
	case t.n == 4 && tok[1] == "thang":
		d, m, y = dateField(tok[0]), dateField(tok[2]), dateField(tok[3])
	case dashed && len(tok[0]) == 4:
		y, m, d = dateField(tok[0]), dateField(tok[1]), dateField(tok[2])
	default:
		return NormalizedValue{}, false
	}
	if y < 1 || y > 9999 || m < 1 || m > 12 || d < 1 || d > 31 {
		return NormalizedValue{}, false
	}
	return NormalizedValue{Kind: ValueDate, Year: y, Month: m, Day: d}, true
}

// dateField reads an ASCII digit run, or returns -1 for anything else or
// a value past any date field's range.
func dateField(s string) int {
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return -1
		}
		if n = n*10 + int(s[i]-'0'); n > 9999 {
			return -1
		}
	}
	return n
}

// isWordRune is Tokenize's token class: letters and digits.
func isWordRune(r rune) bool { return unicode.IsLetter(r) || unicode.IsDigit(r) }

// unitDef converts a written unit word to its canonical base unit.
type unitDef struct {
	Unit  string
	Scale float64
}

// unitWords maps folded lowercase unit tokens to base units: durations to
// minutes, lengths to meters, masses to kilograms.
var unitWords = map[string]unitDef{
	// Durations (base: minutes).
	"min": {"min", 1}, "mins": {"min", 1}, "minute": {"min", 1},
	"minutes": {"min", 1}, "minutos": {"min", 1}, "phut": {"min", 1},
	"h": {"min", 60}, "hour": {"min", 60}, "hours": {"min", 60},
	"hora": {"min", 60}, "horas": {"min", 60}, "gio": {"min", 60},
	// Lengths (base: meters).
	"mm": {"m", 0.001}, "cm": {"m", 0.01}, "m": {"m", 1}, "km": {"m", 1000},
	"mi": {"m", 1609.344}, "mile": {"m", 1609.344}, "miles": {"m", 1609.344},
	"ft": {"m", 0.3048}, "feet": {"m", 0.3048},
	// Masses (base: kilograms).
	"mg": {"kg", 1e-6}, "g": {"kg", 0.001}, "kg": {"kg", 1},
	"t": {"kg", 1000}, "ton": {"kg", 1000}, "tons": {"kg", 1000},
	"tonne": {"kg", 1000}, "tonnes": {"kg", 1000},
	"lb": {"kg", 0.45359237}, "lbs": {"kg", 0.45359237},
}

// scaleWords are the magnitude multipliers editions spell out:
// million/milhões/triệu, billion/bilhões/tỷ, thousand/mil/nghìn.
var scaleWords = map[string]float64{
	"thousand": 1e3, "mil": 1e3, "nghin": 1e3,
	"million": 1e6, "millions": 1e6, "milhao": 1e6, "milhoes": 1e6,
	"trieu":   1e6,
	"billion": 1e9, "billions": 1e9, "bilhao": 1e9, "bilhoes": 1e9,
	"ty": 1e9,
}

// currencyWords tag a magnitude as a dollar amount.
var currencyWords = map[string]bool{
	"usd": true, "dollar": true, "dollars": true,
	"dolar": true, "dolares": true,
}

// parseNumeric recognizes numbers, scaled numbers, and unit-bearing
// quantities over the normalized string.
func parseNumeric(norm string) (NormalizedValue, bool) {
	var pieces []string
	for _, f := range strings.Fields(norm) {
		pieces = append(pieces, splitPieces(f)...)
	}
	var (
		num      float64
		haveNum  bool
		scale    = 1.0
		unit     unitDef
		haveUnit bool
		currency bool
	)
	for i := 0; i < len(pieces); i++ {
		p := pieces[i]
		if p == "$" {
			currency = true
			continue
		}
		if p == "us" && i+1 < len(pieces) && pieces[i+1] == "$" {
			currency = true
			i++
			continue
		}
		if n, ok := parseLocaleNumber(p); ok {
			if haveNum {
				return NormalizedValue{}, false
			}
			num, haveNum = n, true
			continue
		}
		if !haveNum {
			// Unit, scale and currency words only follow the magnitude
			// (currency symbols may precede it).
			return NormalizedValue{}, false
		}
		if s, ok := scaleWords[p]; ok {
			scale *= s
			continue
		}
		if currencyWords[p] {
			currency = true
			continue
		}
		if u, ok := unitWords[p]; ok && !haveUnit && !currency {
			unit, haveUnit = u, true
			continue
		}
		return NormalizedValue{}, false
	}
	if !haveNum || (haveUnit && currency) {
		return NormalizedValue{}, false
	}
	if currency {
		unit, haveUnit = unitDef{Unit: "usd", Scale: 1}, true
	}
	totalScale := scale
	if haveUnit {
		totalScale *= unit.Scale
	}
	total := num * totalScale
	if math.IsInf(total, 0) || math.IsNaN(total) {
		return NormalizedValue{}, false
	}
	v := NormalizedValue{
		Kind:     ValueNumber,
		Number:   total,
		Mantissa: num,
		Scale:    totalScale,
	}
	if haveUnit {
		v.Kind = ValueQuantity
		v.Unit = unit.Unit
	}
	return v, true
}

// splitPieces cuts one whitespace-free field into number runs, letter
// runs, and single symbol runes, so glued forms ("$23", "160min") parse.
// A sign joins the following number run only when it starts one.
func splitPieces(f string) []string {
	var pieces []string
	runes := []rune(f)
	for i := 0; i < len(runes); {
		r := runes[i]
		switch {
		case isNumRune(r) || ((r == '-' || r == '+') && i+1 < len(runes) && isDigit(runes[i+1])):
			j := i + 1
			for j < len(runes) && isNumRune(runes[j]) {
				j++
			}
			pieces = append(pieces, string(runes[i:j]))
			i = j
		case isLetter(r):
			j := i + 1
			for j < len(runes) && isLetter(runes[j]) {
				j++
			}
			pieces = append(pieces, string(runes[i:j]))
			i = j
		default:
			pieces = append(pieces, string(r))
			i++
		}
	}
	return pieces
}

func isDigit(r rune) bool   { return r >= '0' && r <= '9' }
func isNumRune(r rune) bool { return isDigit(r) || r == '.' || r == ',' }
func isLetter(r rune) bool {
	return (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
}

// parseLocaleNumber reads a number written with either separator
// convention: '.' or ',' as the decimal mark, the other (or repeated
// groups of the same) as thousands grouping. A single separator followed
// by exactly three digits after a 1–3 digit head is grouping ("1,234",
// "1.234" → 1234); anything else is a decimal mark.
func parseLocaleNumber(s string) (float64, bool) {
	neg := false
	switch {
	case strings.HasPrefix(s, "-"):
		neg, s = true, s[1:]
	case strings.HasPrefix(s, "+"):
		s = s[1:]
	}
	if s == "" || !isDigit(rune(s[0])) || !isDigit(rune(s[len(s)-1])) {
		return 0, false
	}
	for _, r := range s {
		if !isNumRune(r) {
			return 0, false
		}
	}
	dots := strings.Count(s, ".")
	commas := strings.Count(s, ",")
	var intPart, fracPart string
	switch {
	case dots > 0 && commas > 0:
		dec := byte('.')
		if strings.LastIndexByte(s, ',') > strings.LastIndexByte(s, '.') {
			dec = ','
		}
		if strings.Count(s, string(dec)) != 1 {
			return 0, false
		}
		i := strings.IndexByte(s, dec)
		intPart, fracPart = s[:i], s[i+1:]
		group := byte(',')
		if dec == ',' {
			group = '.'
		}
		var ok bool
		intPart, ok = ungroup(intPart, group)
		if !ok || strings.ContainsAny(fracPart, ".,") {
			return 0, false
		}
	case dots+commas == 1:
		sep := byte('.')
		if commas == 1 {
			sep = ','
		}
		i := strings.IndexByte(s, sep)
		if len(s)-i-1 == 3 && i <= 3 {
			intPart = s[:i] + s[i+1:] // thousands grouping
		} else {
			intPart, fracPart = s[:i], s[i+1:]
		}
	case dots > 1 || commas > 1:
		sep := byte('.')
		if commas > 1 {
			sep = ','
		}
		var ok bool
		intPart, ok = ungroup(s, sep)
		if !ok {
			return 0, false
		}
	default:
		intPart = s
	}
	num := intPart
	if fracPart != "" {
		num += "." + fracPart
	}
	x, err := strconv.ParseFloat(num, 64)
	if err != nil || math.IsInf(x, 0) || math.IsNaN(x) {
		return 0, false
	}
	if neg {
		x = -x
	}
	return x, true
}

// ungroup strips thousands separators, requiring a 1–3 digit head and
// exactly-3-digit groups.
func ungroup(s string, sep byte) (string, bool) {
	parts := strings.Split(s, string(sep))
	if len(parts[0]) < 1 || len(parts[0]) > 3 {
		return "", false
	}
	for _, p := range parts[1:] {
		if len(p) != 3 {
			return "", false
		}
	}
	return strings.Join(parts, ""), true
}
