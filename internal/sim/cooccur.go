package sim

import "slices"

// coRows is a symmetric co-occurrence matrix in compressed-sparse-row
// form: row i lists, in ascending order, every attribute k that shares
// at least one infobox with i (nbr[start[i]:start[i+1]]) next to that
// count (cnt, same range). Each unordered pair is stored in both of its
// rows, so neighbours of one attribute are a contiguous slice — the
// access InductiveGrouping needs. Offsets, neighbours and counts are
// int32: a type never has 2^31 attributes or infoboxes.
type coRows struct {
	start []int32 // len(attrs)+1 row offsets into nbr and cnt
	nbr   []int32
	cnt   []int32
}

// coCounter accumulates co-occurrence counts while a TypeData is built,
// keyed by i<<32 | j with i < j, before freeze turns it into rows.
type coCounter map[uint64]int32

func (c coCounter) add(i, j int) { c[uint64(i)<<32|uint64(j)]++ }

// freeze returns the counts as rows over n attributes.
func (c coCounter) freeze(n int) coRows {
	keys := make([]uint64, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	cs := make([]CoCount, len(keys))
	for x, k := range keys {
		cs[x] = CoCount{I: int(k >> 32), J: int(uint32(k)), N: int(c[k])}
	}
	return newCoRows(n, cs)
}

// newCoRows builds the rows over n attributes from (i, j, count) triples
// sorted by (i, j) with i < j — the form Snapshot emits. Sorted input
// fills every row in ascending order without a per-row sort: row r first
// receives its partners below r (in the order their triples appear),
// then its partners above r.
func newCoRows(n int, cs []CoCount) coRows {
	r := coRows{
		start: make([]int32, n+1),
		nbr:   make([]int32, 2*len(cs)),
		cnt:   make([]int32, 2*len(cs)),
	}
	for _, c := range cs {
		r.start[c.I+1]++
		r.start[c.J+1]++
	}
	for i := 1; i <= n; i++ {
		r.start[i] += r.start[i-1]
	}
	next := slices.Clone(r.start[:n])
	put := func(i, k, count int) {
		p := next[i]
		next[i]++
		r.nbr[p], r.cnt[p] = int32(k), int32(count)
	}
	for _, c := range cs {
		put(c.I, c.J, c.N)
		put(c.J, c.I, c.N)
	}
	return r
}

// row returns attribute i's ascending neighbours and their counts.
func (r *coRows) row(i int) ([]int32, []int32) {
	lo, hi := r.start[i], r.start[i+1]
	return r.nbr[lo:hi], r.cnt[lo:hi]
}

// count returns how often attributes i and j co-occur (0 for i == j):
// a binary search in row i.
func (r *coRows) count(i, j int) int {
	nbr, cnt := r.row(i)
	if x, ok := slices.BinarySearch(nbr, int32(j)); ok {
		return int(cnt[x])
	}
	return 0
}

// triples returns the i < j half of the rows as (i, j, count) triples
// sorted by (i, j): the snapshot form newCoRows reads back.
func (r *coRows) triples() []CoCount {
	out := make([]CoCount, 0, len(r.nbr)/2)
	for i := 0; i+1 < len(r.start); i++ {
		nbr, cnt := r.row(i)
		for x, k := range nbr {
			if int(k) > i {
				out = append(out, CoCount{I: i, J: int(k), N: int(cnt[x])})
			}
		}
	}
	return out
}
