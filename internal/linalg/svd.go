package linalg

import (
	"math"
	"sort"
)

// SVD holds a (possibly truncated) singular value decomposition
// A ≈ U · diag(S) · Vᵀ with U (m×r), S (r), V (n×r), and singular values
// in non-increasing order.
type SVD struct {
	U *Matrix
	S []float64
	V *Matrix
}

// Rank returns the number of retained singular triplets.
func (d *SVD) Rank() int { return len(d.S) }

// Truncate returns the rank-k truncation of the decomposition (the f most
// important dimensions, in the paper's terms). k larger than the current
// rank returns the decomposition unchanged.
func (d *SVD) Truncate(k int) *SVD {
	if k >= len(d.S) {
		return d
	}
	if k < 0 {
		k = 0
	}
	return &SVD{U: d.U.Truncate(k), S: append([]float64(nil), d.S[:k]...), V: d.V.Truncate(k)}
}

// Reconstruct returns U · diag(S) · Vᵀ.
func (d *SVD) Reconstruct() *Matrix {
	us := d.U.Clone()
	us.ScaleCols(d.S)
	return us.Mul(d.V.Transpose())
}

// ScaledU returns U · diag(S): each row is the corresponding row entity's
// embedding in the latent space, scaled by the top singular values — the
// representation LSI compares with cosine.
func (d *SVD) ScaledU() *Matrix {
	us := d.U.Clone()
	us.ScaleCols(d.S)
	return us
}

// ComputeSVD computes the full singular value decomposition of a using
// the one-sided Jacobi (Hestenes) method. It is accurate for the small,
// well-scaled matrices produced by LSI occurrence counting.
func ComputeSVD(a *Matrix) *SVD {
	if a.Rows == 0 || a.Cols == 0 {
		return &SVD{U: NewMatrix(a.Rows, 0), S: nil, V: NewMatrix(a.Cols, 0)}
	}
	// One-sided Jacobi orthogonalizes columns; work with the tall
	// orientation (rows ≥ cols) and swap factors back if we transposed.
	transposed := a.Cols > a.Rows
	work := a
	if transposed {
		work = a.Transpose()
	}
	u, s, v, _ := jacobiSVD(work)
	if transposed {
		u, v = v, u
	}
	return &SVD{U: u, S: s, V: v}
}

// jacobiDeflate is δ of jacobiSVD's negligible-column test: a column
// whose squared norm is at most δ·‖A‖²_F is numerically null and takes
// part in no further rotation, as in LAPACK's one-sided Jacobi (xGESVJ).
// Without it a rank-deficient input never converges: every sweep rotates
// the null columns against the rest while their norms decay through the
// subnormal range, and the loop runs to its sweep cap.
const jacobiDeflate = 0x1p-400

// jacobiSVD decomposes a tall matrix (rows ≥ cols) via one-sided Jacobi
// rotations: it repeatedly rotates pairs of columns of B (a working copy
// of A) until all pairs are numerically orthogonal or negligible. The
// right factor V accumulates the rotations; singular values are the
// column norms of the converged B and U its normalized columns. sweeps
// counts the passes over all column pairs, the last one rotating none.
func jacobiSVD(a *Matrix) (u *Matrix, s []float64, v *Matrix, sweeps int) {
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
	// Rotations preserve ‖B‖_F, so the negligible threshold is fixed.
	var frob float64
	for _, x := range a.Data {
		frob += x * x
	}
	null := jacobiDeflate * frob
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
				if alpha <= null || beta <= null || math.Abs(gamma) <= eps*math.Sqrt(alpha*beta) || gamma == 0 {
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
	// Extract singular values and left vectors.
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
	// Sort triplets by descending singular value.
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

// TruncatedSVD computes the rank-k truncated SVD of a.
func TruncatedSVD(a *Matrix, k int) *SVD {
	return ComputeSVD(a).Truncate(k)
}
