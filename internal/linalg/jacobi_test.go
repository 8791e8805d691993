package linalg

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// referenceJacobiSVD is jacobiSVD without the negligible-column test:
// the plain cyclic one-sided Jacobi that rotates every non-orthogonal
// pair until a sweep rotates none or 60 sweeps have run. On a
// rank-deficient input it runs to the cap.
func referenceJacobiSVD(a *Matrix) (u *Matrix, s []float64, v *Matrix, sweeps int) {
	m, n := a.Rows, a.Cols
	b := a.Clone()
	v = NewMatrix(n, n)
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}
	const (
		eps       = 1e-12
		maxSweeps = 60
	)
	for sweeps < maxSweeps {
		sweeps++
		rotated := false
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				var alpha, beta, gamma float64
				for r := 0; r < m; r++ {
					bp, bq := b.Data[r*n+p], b.Data[r*n+q]
					alpha += bp * bp
					beta += bq * bq
					gamma += bp * bq
				}
				if math.Abs(gamma) <= eps*math.Sqrt(alpha*beta) || gamma == 0 {
					continue
				}
				rotated = true
				zeta := (beta - alpha) / (2 * gamma)
				t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
				c := 1 / math.Sqrt(1+t*t)
				sn := c * t
				for r := 0; r < m; r++ {
					bp, bq := b.Data[r*n+p], b.Data[r*n+q]
					b.Data[r*n+p] = c*bp - sn*bq
					b.Data[r*n+q] = sn*bp + c*bq
				}
				for r := 0; r < n; r++ {
					vp, vq := v.Data[r*n+p], v.Data[r*n+q]
					v.Data[r*n+p] = c*vp - sn*vq
					v.Data[r*n+q] = sn*vp + c*vq
				}
			}
		}
		if !rotated {
			break
		}
	}
	s = make([]float64, n)
	u = NewMatrix(m, n)
	for j := 0; j < n; j++ {
		var norm float64
		for r := 0; r < m; r++ {
			norm += b.Data[r*n+j] * b.Data[r*n+j]
		}
		norm = math.Sqrt(norm)
		s[j] = norm
		if norm > 0 {
			for r := 0; r < m; r++ {
				u.Data[r*n+j] = b.Data[r*n+j] / norm
			}
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return s[order[i]] > s[order[j]] })
	sortedS := make([]float64, n)
	sortedU := NewMatrix(m, n)
	sortedV := NewMatrix(n, n)
	for newJ, oldJ := range order {
		sortedS[newJ] = s[oldJ]
		for r := 0; r < m; r++ {
			sortedU.Data[r*n+newJ] = u.Data[r*n+oldJ]
		}
		for r := 0; r < n; r++ {
			sortedV.Data[r*n+newJ] = v.Data[r*n+oldJ]
		}
	}
	return sortedU, sortedS, sortedV, sweeps
}

// rankDeficientOccurrence builds a binary rows×cols occurrence matrix
// of rank at most base+1, shaped like an LSI type matrix (attributes ×
// duals): base random rows, then rows that duplicate one of them, or
// pairs x, 1−x of a base row x and its complement, whose sum is the
// all-ones row.
func rankDeficientOccurrence(rng *rand.Rand, rows, cols, base int, density float64) *Sparse {
	dense := NewMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		switch {
		case r < base:
			for c := 0; c < cols; c++ {
				if rng.Float64() < density {
					dense.Set(r, c, 1)
				}
			}
		case r%3 != 0 || r+1 >= rows:
			src := rng.Intn(base)
			copy(dense.Data[r*cols:(r+1)*cols], dense.Data[src*cols:(src+1)*cols])
		default:
			src := rng.Intn(base)
			for c := 0; c < cols; c++ {
				x := dense.At(src, c)
				dense.Set(r, c, x)
				dense.Set(r+1, c, 1-x)
			}
			r++
		}
	}
	return SparseFromDense(dense)
}

func frobSquared(a *Matrix) float64 {
	var f float64
	for _, x := range a.Data {
		f += x * x
	}
	return f
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestJacobiDeflationMatchesReference decomposes the Gram matrices of
// rank-deficient binary occurrence matrices, the input GramSVD hands
// to Jacobi, and checks that negligible-column deflation leaves every
// triplet above the threshold bit-identical to the reference loop (S
// and V), stops within 20 sweeps, and that GramSVD's rank-k answer is
// bit-identical to one assembled from the reference eigenpairs.
func TestJacobiDeflationMatchesReference(t *testing.T) {
	const k = 10
	rng := rand.New(rand.NewSource(16))
	capped := 0
	for _, tc := range []struct {
		rows, cols, base int
		density          float64
		transpose        bool
	}{
		{36, 180, 17, 0.1, false},
		{36, 190, 17, 0.05, false},
		{40, 260, 20, 0.08, false},
		{24, 200, 11, 0.2, false},
		{30, 150, 3, 0.1, false}, // rank below k
		{36, 180, 17, 0.1, true}, // tall: the Gram side is the columns
	} {
		a := rankDeficientOccurrence(rng, tc.rows, tc.cols, tc.base, tc.density)
		if tc.transpose {
			a = a.Transpose()
		}
		if got := routeFor(a, k, RSVDOptions{}.withDefaults()); got != routeGram {
			t.Fatalf("%dx%d: route %v, want the Gram route", tc.rows, tc.cols, got)
		}
		work, workT, tall := orientSmallSide(a)
		g := work.MulSparse(workT).Dense()
		_, s, v, sweeps := jacobiSVD(g)
		_, rs, rv, refSweeps := referenceJacobiSVD(g)
		if refSweeps == 60 {
			capped++
		}
		if sweeps > 20 {
			t.Errorf("%dx%d: %d sweeps, want ≤ 20 (reference ran %d)", tc.rows, tc.cols, sweeps, refSweeps)
		}
		null := jacobiDeflate * frobSquared(g)
		n := len(s)
		rank := 0
		for j := 0; j < n; j++ {
			if s[j]*s[j] <= null {
				if !(rs[j]*rs[j] <= null) {
					t.Errorf("%dx%d: triplet %d negligible (%g) but reference keeps %g", tc.rows, tc.cols, j, s[j], rs[j])
				}
				continue
			}
			rank++
			if !sameBits(s[j], rs[j]) {
				t.Errorf("%dx%d: s[%d] = %v, reference %v", tc.rows, tc.cols, j, s[j], rs[j])
			}
			for r := 0; r < n; r++ {
				if !sameBits(v.At(r, j), rv.At(r, j)) {
					t.Errorf("%dx%d: V[%d,%d] = %v, reference %v", tc.rows, tc.cols, r, j, v.At(r, j), rv.At(r, j))
					break
				}
			}
		}
		t.Logf("%dx%d: %d of %d triplets above the threshold, %d sweeps (reference %d)", tc.rows, tc.cols, rank, n, sweeps, refSweeps)
		if rank >= n {
			t.Errorf("%dx%d: Gram matrix has full rank %d; the case is meant to be deficient", tc.rows, tc.cols, rank)
		}

		// The full GramSVD route against the reference eigenpairs, on
		// the triplets that are above the threshold.
		kk := min(k, rank)
		got := GramSVD(a, k)
		want := assembleFromSmallSide(work, tall, rv.Truncate(kk), rs[:kk])
		for j := 0; j < kk; j++ {
			if !sameBits(got.S[j], want.S[j]) {
				t.Errorf("%dx%d: GramSVD S[%d] = %v, reference %v", tc.rows, tc.cols, j, got.S[j], want.S[j])
			}
		}
		for _, pair := range [][2]*Matrix{{got.U, want.U}, {got.V, want.V}} {
			for r := 0; r < pair[1].Rows; r++ {
				for j := 0; j < kk; j++ {
					if !sameBits(pair[0].At(r, j), pair[1].At(r, j)) {
						t.Fatalf("%dx%d: GramSVD factor [%d,%d] = %v, reference %v", tc.rows, tc.cols, r, j, pair[0].At(r, j), pair[1].At(r, j))
					}
				}
			}
		}
		// Below-threshold triplets GramSVD still returns (rank < k) are
		// numerically null in both versions.
		for j := kk; j < len(got.S); j++ {
			if lam := got.S[j] * got.S[j]; lam*lam > null {
				t.Errorf("%dx%d: retained null triplet %d has σ = %g", tc.rows, tc.cols, j, got.S[j])
			}
		}
	}
	if capped == 0 {
		t.Errorf("no case drove the reference loop to its 60-sweep cap; the inputs do not exercise deflation")
	}
}
