package sim

// The alternative attribute-correlation measures of Appendix B. Op and Oq
// are occurrence counts of the two attributes and Opq their co-occurrence
// count in the dual-language infoboxes of the type. They are compared to
// LSI by mean average precision in Table 7.

// X1 is the raw co-occurrence count.
func (td *TypeData) X1(i, j int) float64 {
	return float64(td.CoOccurDual(i, j))
}

// X2 is (1 + Opq/Op)(1 + Opq/Oq).
func (td *TypeData) X2(i, j int) float64 {
	op, oq := float64(td.occ[i]), float64(td.occ[j])
	if op == 0 || oq == 0 {
		return 0
	}
	opq := float64(td.CoOccurDual(i, j))
	return (1 + opq/op) * (1 + opq/oq)
}

// X3 is Opq·Opq / (Op + Oq).
func (td *TypeData) X3(i, j int) float64 {
	op, oq := float64(td.occ[i]), float64(td.occ[j])
	if op+oq == 0 {
		return 0
	}
	opq := float64(td.CoOccurDual(i, j))
	return opq * opq / (op + oq)
}

// Matched tells InductiveGrouping which attributes are already part of a
// derived match and which pairs are aligned; it is implemented by the
// core matcher's match set.
type Matched interface {
	// Contains reports whether attribute index i participates in any match.
	Contains(i int) bool
	// Aligned reports whether attributes i and j are in the same match.
	Aligned(i, j int) bool
}

// InductiveGrouping computes eg(a, a′) of Section 3.4: the average
// product of grouping scores of a and a′ with the pairs of already
// matched attributes (ca, c′a) that co-occur with them in their own
// languages and are aligned with each other:
//
//	eg(a, a′) = (1/|C|) Σ g(a, ca) · g(a′, c′a)   over ca ~ c′a
//
// A high score means the uncertain pair keeps company with attributes
// whose alignment is already trusted.
//
// The candidates ca and c′a are read off the co-occurrence rows of i and
// j, so the cost is the product of the two row lengths, not a scan of
// every attribute, and nothing is allocated. Rows are ascending, so the
// terms are summed in the same (ca, c′a) order as an ascending scan over
// all attributes would, and the result is the same to the bit.
func (td *TypeData) InductiveGrouping(i, j int, m Matched) float64 {
	nbrI, cntI := td.coLang.row(i)
	nbrJ, cntJ := td.coLang.row(j)
	langI, langJ := td.Attrs[i].Lang, td.Attrs[j].Lang
	var sum float64
	n := 0
	for x, ca := range nbrI {
		a := int(ca)
		if a == j || cntI[x] <= 0 || !m.Contains(a) || td.Attrs[a].Lang != langI {
			continue
		}
		ga := td.grouping(i, a, cntI[x])
		for y, cb := range nbrJ {
			b := int(cb)
			if b == i || cntJ[y] <= 0 || !m.Aligned(a, b) || !m.Contains(b) || td.Attrs[b].Lang != langJ {
				continue
			}
			sum += ga * td.grouping(j, b, cntJ[y])
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
