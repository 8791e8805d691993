package sim

import (
	"repro/internal/lsi"
	"repro/internal/text"
	"repro/internal/wiki"
)

// Snapshot is the fully exported, serializable form of a TypeData. Every
// field mirrors one piece of the workspace; attribute-indexed slices are
// aligned with Attrs, and the dual-language infoboxes reference attributes
// by index rather than by value. The snapshot store (internal/store)
// encodes this struct; TypeData itself keeps its fields unexported so the
// matcher-facing surface stays immutable.
type Snapshot struct {
	Pair         wiki.LanguagePair
	TypeA, TypeB string

	Attrs   []Attr
	Display []string // surface form per attribute index

	// Duals lists each dual-language infobox as attribute indices into
	// Attrs: DualsA[k] are the pair.A-side attributes of dual k.
	DualsA, DualsB [][]int

	ValueVec    []text.TF
	TransVec    []text.TF // nil entries for the pair.B side
	LinkVec     []text.TF
	RawVec      []text.TF
	RawTransVec []text.TF // nil entries for the pair.B side

	Occ []int
	// CoLang and CoDual are the co-occurrence counters as sorted
	// (i, j, count) triples with i < j.
	CoLang, CoDual []CoCount

	NBoxes map[wiki.Language]int
}

// CoCount is one co-occurrence counter: attributes I < J appeared
// together N times.
type CoCount struct {
	I, J, N int
}

// Snapshot extracts the workspace's full state for serialization. The
// snapshot shares the TypeData's vectors and slices (both sides are
// immutable by convention), so taking one is cheap.
func (td *TypeData) Snapshot() *Snapshot {
	s := &Snapshot{
		Pair:        td.Pair,
		TypeA:       td.TypeA,
		TypeB:       td.TypeB,
		Attrs:       td.Attrs,
		Display:     make([]string, len(td.Attrs)),
		ValueVec:    td.valueVec,
		TransVec:    td.transVec,
		LinkVec:     td.linkVec,
		RawVec:      td.rawVec,
		RawTransVec: td.rawTransVec,
		Occ:         td.occ,
		CoLang:      td.coLang.triples(),
		CoDual:      td.coDual.triples(),
		NBoxes:      td.nBoxes,
	}
	for i, a := range td.Attrs {
		s.Display[i] = td.Display[a]
	}
	s.DualsA = make([][]int, len(td.Duals))
	s.DualsB = make([][]int, len(td.Duals))
	for k, d := range td.Duals {
		s.DualsA[k] = attrIndices(td.Index, d.A)
		s.DualsB[k] = attrIndices(td.Index, d.B)
	}
	return s
}

func attrIndices(index map[Attr]int, attrs []Attr) []int {
	out := make([]int, len(attrs))
	for i, a := range attrs {
		out[i] = index[a]
	}
	return out
}

// FromSnapshot reconstructs a TypeData. Vectors, counters and dual lists
// are restored exactly, so a restored workspace scores every attribute
// pair bit-identically to the one it was snapshotted from. The
// co-occurrence triples must be in the form Snapshot writes (i < j,
// sorted by (i, j), no repeats); store.Read rejects any other.
func FromSnapshot(s *Snapshot) *TypeData {
	td := &TypeData{
		Pair:        s.Pair,
		TypeA:       s.TypeA,
		TypeB:       s.TypeB,
		Attrs:       s.Attrs,
		Index:       make(map[Attr]int, len(s.Attrs)),
		Display:     make(map[Attr]string, len(s.Attrs)),
		valueVec:    s.ValueVec,
		transVec:    s.TransVec,
		linkVec:     s.LinkVec,
		rawVec:      s.RawVec,
		rawTransVec: s.RawTransVec,
		occ:         s.Occ,
		coLang:      newCoRows(len(s.Attrs), s.CoLang),
		coDual:      newCoRows(len(s.Attrs), s.CoDual),
		nBoxes:      s.NBoxes,
	}
	for i, a := range s.Attrs {
		td.Index[a] = i
		td.Display[a] = s.Display[i]
	}
	td.Duals = make([]lsi.Dual, len(s.DualsA))
	for k := range s.DualsA {
		td.Duals[k] = lsi.Dual{
			A: indexAttrs(s.Attrs, s.DualsA[k]),
			B: indexAttrs(s.Attrs, s.DualsB[k]),
		}
	}
	return td
}

func indexAttrs(attrs []Attr, idx []int) []Attr {
	if idx == nil {
		return nil
	}
	out := make([]Attr, len(idx))
	for i, j := range idx {
		out[i] = attrs[j]
	}
	return out
}
