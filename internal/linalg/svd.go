package linalg

import (
	"math"
	"sort"
)

// SVD holds a thin singular value decomposition X = U·diag(S)·Vᵀ where X is
// r×c, U is r×n, S has n entries in non-increasing order, and V is c×n with
// orthonormal columns. n = min(r, c).
//
// The rows of Components (the transpose of V, n×c) are the right singular
// vectors, i.e. the principal components when X is mean-centred — matching
// the convention of Algorithm 1 in the paper, where signatures are encoded
// as X·PCᵀ and decoded as Z·PC.
type SVD struct {
	U *Dense    // r×n left singular vectors
	S []float64 // n singular values, descending
	V *Dense    // c×n right singular vectors (columns)
	// Converged reports whether the Jacobi iteration drove the
	// off-diagonal mass below tolerance within its sweep budget. ComputeSVD
	// still returns the best-effort factors when false; ComputeSVDChecked
	// turns false into ErrSVDNoConvergence.
	Converged bool
}

// Components returns the principal components as an n×c matrix whose rows
// are the right singular vectors in order of decreasing singular value.
func (d *SVD) Components() *Dense { return d.V.T() }

// ComputeSVD computes a thin SVD of x by one-sided Jacobi rotations on
// the side with fewer vectors: the columns of a tall x, the rows of a wide
// one. It is accurate for the small dense matrices used in schema scoping.
func ComputeSVD(x *Dense) *SVD {
	return computeSVD(x, vectorSVD)
}

// computeSVD lays x out as the vectors decompose orthogonalises and
// assembles the sorted thin SVD from its result.
func computeSVD(x *Dense, decompose func(w *Dense) (vec *Dense, s []float64, rot *Dense, converged bool)) *SVD {
	r, c := x.Rows(), x.Cols()
	if r == 0 || c == 0 {
		return &SVD{U: NewDense(r, 0), S: nil, V: NewDense(c, 0), Converged: true}
	}
	if r >= c {
		// The vectors are the columns of x: they converge to U·diag(S)
		// and the accumulated rotations form V.
		vec, s, rot, ok := decompose(x.T())
		order := descending(s)
		return &SVD{U: sortedColumns(vec, order), S: permute(s, order), V: sortedColumns(rot, order), Converged: ok}
	}
	// The vectors are the rows of x, i.e. the columns of Xᵀ = U'·S·V'ᵀ, so
	// X = V'·S·U'ᵀ: the rotations form U and the vectors V.
	vec, s, rot, ok := decompose(x.Clone())
	order := descending(s)
	return &SVD{U: sortedColumns(rot, order), S: permute(s, order), V: sortedColumns(vec, order), Converged: ok}
}

// SVDTolerance is the documented accuracy contract of ComputeSVD, relative
// to the largest singular value s_max: singular values match an exact
// decomposition's within SVDTolerance·s_max, the reconstruction satisfies
// max|X − U·diag(S)·Vᵀ| ≤ SVDTolerance·s_max, and UᵀU and VᵀV equal the
// identity within SVDTolerance over the columns whose singular value
// exceeds SVDTolerance·s_max (the rest span the numerical null space and
// may be zero). Both the plain and the QR-preconditioned path meet it;
// the tests pin it on seeded tall, wide, low-rank and rank-deficient
// shapes.
const SVDTolerance = 1e-11

// qrMinAspect is the crossover, in vector length per vector, from which
// vectorSVD reduces the vectors to a triangular factor before rotating
// them. Below it the QR and the lift cost more than the shorter rotations
// save (DESIGN.md §11, "SVD").
const qrMinAspect = 2

// vectorSVD decomposes the vectors in the rows of w (overwritten): by
// plain Jacobi when they are short, by qrJacobiSVD when they are at least
// qrMinAspect times as long as there are vectors.
func vectorSVD(w *Dense) (vec *Dense, s []float64, rot *Dense, converged bool) {
	if w.cols < qrMinAspect*w.rows {
		return jacobiSVD(w)
	}
	return qrJacobiSVD(w)
}

// qrJacobiSVD is jacobiSVD with Householder QR preconditioning (Drmač &
// Veselić, "New fast and accurate Jacobi SVD algorithm", SIAM J. Matrix
// Anal. Appl. 29(4), 2008). A = wᵀ (n×m, n ≥ m) is factored as Q·R, the
// rotations run on the m columns of the m×m R instead of the long
// vectors, and the left singular vectors of R are lifted back through
// Q's reflectors. R's columns have A's inner products, so the rotations,
// the right singular vectors and the singular values are A's up to
// rounding. w is overwritten.
func qrJacobiSVD(w *Dense) (vec *Dense, s []float64, rot *Dense, converged bool) {
	m, n := w.rows, w.cols
	tau := householderQR(w)
	r := NewDense(m, m) // row j holds column j of R
	for j := 0; j < m; j++ {
		copy(r.data[j*m:j*m+j+1], w.data[j*n:j*n+j+1])
		w.data[j*n+j] = 1 // unit leading entry of reflector j
	}
	ur, s, rot, converged := jacobiSVD(r)
	vec = NewDense(m, n)
	for j := 0; j < m; j++ {
		copy(vec.data[j*n:j*n+m], ur.data[j*m:(j+1)*m])
	}
	for k := m - 1; k >= 0; k-- {
		reflect(w.data[k*n+k:(k+1)*n], tau[k], vec, k, 0)
	}
	return vec, s, rot, converged
}

// householderQR factors A = wᵀ = Q·R for the m vectors in the rows of w
// (m×n, n ≥ m), working on each vector as one contiguous row. On return
// row j of w holds column j of R in its first j+1 entries and, past the
// diagonal, the tail of the Householder vector of reflector j, whose
// leading entry is an implicit 1; tau holds the reflector scales, so
// Q = H₀·H₁·…·Hₘ₋₁ with Hₖ = I − tau[k]·vₖ·vₖᵀ acting on entries k….
func householderQR(w *Dense) (tau []float64) {
	m, n := w.rows, w.cols
	tau = make([]float64, m)
	for k := 0; k < m; k++ {
		x := w.data[k*n+k : (k+1)*n]
		var tail float64
		for _, v := range x[1:] {
			tail += float64(v * v)
		}
		if tail == 0 {
			continue // already reduced: Hₖ = I
		}
		alpha := x[0]
		beta := -math.Copysign(math.Sqrt(float64(alpha*alpha)+tail), alpha)
		tau[k] = (beta - alpha) / beta
		scale := 1 / (alpha - beta)
		for i := 1; i < len(x); i++ {
			x[i] *= scale
		}
		x[0] = 1
		reflect(x, tau[k], w, k, k+1)
		x[0] = beta
	}
	return tau
}

// reflect applies the Householder reflector I − tau·v·vᵀ to entries k… of
// rows from… of w, where v (length n−k, v[0] = 1) is stored contiguously.
// Each dot product accumulates in index order into its own accumulator;
// four rows are processed at once only to overlap their latencies.
func reflect(v []float64, tau float64, w *Dense, k, from int) {
	if tau == 0 {
		return
	}
	n := w.cols
	j := from
	for ; j+4 <= w.rows; j += 4 {
		y0 := w.data[j*n+k : (j+1)*n][:len(v)]
		y1 := w.data[(j+1)*n+k : (j+2)*n][:len(v)]
		y2 := w.data[(j+2)*n+k : (j+3)*n][:len(v)]
		y3 := w.data[(j+3)*n+k : (j+4)*n][:len(v)]
		var d0, d1, d2, d3 float64
		for i, vi := range v {
			d0 += float64(vi * y0[i])
			d1 += float64(vi * y1[i])
			d2 += float64(vi * y2[i])
			d3 += float64(vi * y3[i])
		}
		f0, f1, f2, f3 := tau*d0, tau*d1, tau*d2, tau*d3
		for i, vi := range v {
			y0[i] -= float64(f0 * vi)
			y1[i] -= float64(f1 * vi)
			y2[i] -= float64(f2 * vi)
			y3[i] -= float64(f3 * vi)
		}
	}
	for ; j < w.rows; j++ {
		y := w.data[j*n+k : (j+1)*n][:len(v)]
		var d float64
		for i, vi := range v {
			d += float64(vi * y[i])
		}
		f := tau * d
		for i, vi := range v {
			y[i] -= float64(f * vi)
		}
	}
}

// maxJacobiSweeps bounds the one-sided Jacobi iteration; small dense
// schema-scoping matrices converge in a handful of sweeps, so exhausting
// the budget signals a numerically pathological input rather than a matrix
// that merely needs patience.
const maxJacobiSweeps = 60

// jacobiSVD orthogonalises the m vectors stored as the rows of w (m×n,
// overwritten) by one-sided Jacobi rotations. Each vector is one
// contiguous row, so every dot product and rotation streams through memory
// instead of striding across it. On return the rows of w are the
// normalised left singular vectors of A = wᵀ, s their singular values, and
// the rows of rot (m×m) the matching right singular vectors, all in
// vector order (unsorted). The converged result reports whether the
// iteration finished a full sweep without rotations inside the budget, so
// a half-converged decomposition is never a silent success.
//
// Every accumulation rounds its product explicitly (float64(a*b)), so no
// target may fuse it into an FMA: the bits are the same on every platform.
func jacobiSVD(w *Dense) (vec *Dense, s []float64, rot *Dense, converged bool) {
	m, n := w.rows, w.cols
	rot = identity(m)

	const tol = 1e-12
	for sweep := 0; sweep < maxJacobiSweeps; sweep++ {
		rotated := false
		for p := 0; p < m-1; p++ {
			wp := w.data[p*n : (p+1)*n]
			for q := p + 1; q < m; q++ {
				wq := w.data[q*n : (q+1)*n]
				wq = wq[:len(wp)]
				var alpha, beta, gamma float64
				for i, ap := range wp {
					aq := wq[i]
					alpha += float64(ap * ap)
					beta += float64(aq * aq)
					gamma += float64(ap * aq)
				}
				if alpha == 0 || beta == 0 {
					continue
				}
				if math.Abs(gamma) <= tol*math.Sqrt(alpha*beta) {
					continue
				}
				rotated = true
				// Jacobi rotation zeroing the (p,q) inner product.
				zeta := (beta - alpha) / (2 * gamma)
				var t float64
				if zeta > 0 {
					t = 1 / (zeta + math.Sqrt(1+float64(zeta*zeta)))
				} else {
					t = -1 / (-zeta + math.Sqrt(1+float64(zeta*zeta)))
				}
				cs := 1 / math.Sqrt(1+float64(t*t))
				sn := cs * t
				rotate(wp, wq, cs, sn)
				rotate(rot.data[p*m:(p+1)*m], rot.data[q*m:(q+1)*m], cs, sn)
			}
		}
		if !rotated {
			converged = true
			break
		}
	}

	// The singular values are the norms of the rotated vectors; normalising
	// the vectors leaves the left singular vectors.
	s = make([]float64, m)
	for j := range s {
		row := w.data[j*n : (j+1)*n]
		var nrm float64
		for _, v := range row {
			nrm += float64(v * v)
		}
		nrm = math.Sqrt(nrm)
		s[j] = nrm
		if nrm > 0 {
			inv := 1 / nrm
			for i := range row {
				row[i] *= inv
			}
		}
	}
	return w, s, rot, converged
}

// rotate applies the plane rotation [cs −sn; sn cs] to the vector pair
// (x, y) in place.
func rotate(x, y []float64, cs, sn float64) {
	y = y[:len(x)]
	for i, a := range x {
		b := y[i]
		x[i] = float64(cs*a) - float64(sn*b)
		y[i] = float64(sn*a) + float64(cs*b)
	}
}

// descending returns the indices of s ordered by decreasing value, ties in
// index order.
func descending(s []float64) []int {
	idx := make([]int, len(s))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return s[idx[a]] > s[idx[b]] })
	return idx
}

func permute(s []float64, order []int) []float64 {
	out := make([]float64, len(order))
	for newJ, oldJ := range order {
		out[newJ] = s[oldJ]
	}
	return out
}

// sortedColumns returns the vectors stored as the rows of vec as the
// columns of a new matrix, column j holding row order[j].
func sortedColumns(vec *Dense, order []int) *Dense {
	n, k := vec.cols, len(order)
	out := NewDense(n, k)
	for newJ, oldJ := range order {
		row := vec.data[oldJ*n : (oldJ+1)*n]
		for i, v := range row {
			out.data[i*k+newJ] = v
		}
	}
	return out
}

func identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// ExplainedVariance returns the per-component explained-variance ratios
// ev_i = s_i² / Σ s_j² for singular values s (Algorithm 1, lines 6-7).
func ExplainedVariance(s []float64) []float64 {
	out := make([]float64, len(s))
	var sum float64
	for _, v := range s {
		sum += float64(v * v)
	}
	if sum == 0 {
		return out
	}
	for i, v := range s {
		out[i] = v * v / sum
	}
	return out
}

// CumulativeSum returns the running sum of v (Algorithm 1, line 8).
func CumulativeSum(v []float64) []float64 {
	out := make([]float64, len(v))
	var s float64
	for i, x := range v {
		s += x
		out[i] = s
	}
	return out
}

// ComponentsForVariance returns the number of leading principal components
// needed so that the cumulative explained variance reaches at least v
// (Algorithm 1, line 9). It always returns at least 1 when any component
// exists, and never more than len(cev).
func ComponentsForVariance(cev []float64, v float64) int {
	if len(cev) == 0 {
		return 0
	}
	for i, c := range cev {
		if c >= v {
			return i + 1
		}
	}
	return len(cev)
}
