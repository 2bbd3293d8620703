package linalg

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func reconstructSVD(d *SVD) *Dense {
	n := len(d.S)
	us := d.U.Clone()
	for j := 0; j < n; j++ {
		for i := 0; i < us.Rows(); i++ {
			us.Set(i, j, us.At(i, j)*d.S[j])
		}
	}
	return us.Mul(d.V.T())
}

func TestSVDReconstructsTall(t *testing.T) {
	x := FromRows([][]float64{
		{1, 0, 0},
		{0, 2, 0},
		{0, 0, 3},
		{1, 1, 1},
	})
	d := ComputeSVD(x)
	if got := MaxAbsDiff(reconstructSVD(d), x); got > 1e-9 {
		t.Fatalf("reconstruction error %v", got)
	}
}

func TestSVDReconstructsWide(t *testing.T) {
	x := FromRows([][]float64{
		{1, 2, 3, 4, 5},
		{5, 4, 3, 2, 1},
	})
	d := ComputeSVD(x)
	if len(d.S) != 2 {
		t.Fatalf("thin SVD of 2x5 should have 2 values, got %d", len(d.S))
	}
	if got := MaxAbsDiff(reconstructSVD(d), x); got > 1e-9 {
		t.Fatalf("reconstruction error %v", got)
	}
}

func TestSVDKnownValues(t *testing.T) {
	// diag(3, 2) has singular values 3, 2 in descending order.
	x := FromRows([][]float64{{3, 0}, {0, 2}})
	d := ComputeSVD(x)
	if !almostEqual(d.S[0], 3, 1e-10) || !almostEqual(d.S[1], 2, 1e-10) {
		t.Fatalf("S = %v, want [3 2]", d.S)
	}
}

func TestSVDEmpty(t *testing.T) {
	d := ComputeSVD(NewDense(0, 5))
	if len(d.S) != 0 {
		t.Fatalf("S = %v", d.S)
	}
}

func TestSVDOrthonormalV(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	x := randomMatrix(r, 10, 6)
	d := ComputeSVD(x)
	vtv := d.V.T().Mul(d.V)
	for i := 0; i < vtv.Rows(); i++ {
		for j := 0; j < vtv.Cols(); j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(vtv.At(i, j)-want) > 1e-9 {
				t.Fatalf("VᵀV[%d,%d] = %v", i, j, vtv.At(i, j))
			}
		}
	}
}

func TestSVDSingularValuesDescending(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	x := randomMatrix(r, 12, 7)
	d := ComputeSVD(x)
	for i := 1; i < len(d.S); i++ {
		if d.S[i] > d.S[i-1]+1e-12 {
			t.Fatalf("S not descending: %v", d.S)
		}
	}
}

// Property: SVD reconstructs random matrices and all singular values are
// non-negative.
func TestSVDReconstructionProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 1+r.Intn(12), 1+r.Intn(12)
		x := randomMatrix(r, rows, cols)
		d := ComputeSVD(x)
		for _, s := range d.S {
			if s < 0 {
				return false
			}
		}
		return MaxAbsDiff(reconstructSVD(d), x) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestExplainedVariance(t *testing.T) {
	ev := ExplainedVariance([]float64{3, 4}) // squares 9, 16; sum 25
	if !almostEqual(ev[0], 0.36, 1e-12) || !almostEqual(ev[1], 0.64, 1e-12) {
		t.Fatalf("EV = %v", ev)
	}
	if got := ExplainedVariance([]float64{0, 0}); got[0] != 0 || got[1] != 0 {
		t.Fatalf("zero EV = %v", got)
	}
}

func TestCumulativeSum(t *testing.T) {
	got := CumulativeSum([]float64{0.5, 0.3, 0.2})
	if !almostEqual(got[0], 0.5, 1e-12) || !almostEqual(got[1], 0.8, 1e-12) || !almostEqual(got[2], 1.0, 1e-12) {
		t.Fatalf("CumulativeSum = %v", got)
	}
}

func TestComponentsForVariance(t *testing.T) {
	cev := []float64{0.5, 0.8, 0.95, 1.0}
	cases := []struct {
		v    float64
		want int
	}{
		{0.3, 1}, {0.5, 1}, {0.7, 2}, {0.9, 3}, {0.99, 4}, {1.0, 4},
	}
	for _, c := range cases {
		if got := ComponentsForVariance(cev, c.v); got != c.want {
			t.Errorf("ComponentsForVariance(%v) = %d, want %d", c.v, got, c.want)
		}
	}
	if ComponentsForVariance(nil, 0.5) != 0 {
		t.Fatal("empty cev should give 0")
	}
}

// svdDigest hashes the exact bits of a decomposition: U, S, V and the
// convergence flag.
func svdDigest(d *SVD) string {
	h := sha256.New()
	var buf [8]byte
	put := func(vals []float64) {
		for _, v := range vals {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	put(d.U.data)
	put(d.S)
	put(d.V.data)
	if d.Converged {
		h.Write([]byte{1})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestSVDDigestsBelowQRCrossover pins the exact bits of ComputeSVD on
// seeded shapes that run plain Jacobi (no QR preconditioning). Any change
// to the arithmetic order of the rotation loop moves these digests.
func TestSVDDigestsBelowQRCrossover(t *testing.T) {
	cases := []struct {
		rows, cols int
		seed       int64
		want       string
	}{
		{40, 24, 1, "8ab976608685eb8d"},
		{24, 40, 2, "da21b4e0945d0ee4"},
		{5, 5, 3, "83b08eee4dc45bfe"},
		{30, 30, 4, "71f55f7457ecb872"},
		{12, 7, 5, "f4562ad3855c3b49"},
	}
	for _, c := range cases {
		x := randomMatrix(rand.New(rand.NewSource(c.seed)), c.rows, c.cols)
		if got := svdDigest(ComputeSVD(x)); got != c.want {
			t.Errorf("%dx%d seed %d: digest %s, want %s", c.rows, c.cols, c.seed, got, c.want)
		}
	}
}

// svdContract checks a decomposition of x against SVDTolerance: the
// reconstruction error and the orthonormality of U and V. Columns whose
// singular value is below SVDTolerance·s_max span the numerical null space
// and may be zero, so they are held only to their norm being 0 or 1.
func svdContract(t *testing.T, name string, x *Dense, d *SVD) {
	t.Helper()
	smax := d.S[0]
	if got := MaxAbsDiff(reconstructSVD(d), x); got > SVDTolerance*smax {
		t.Errorf("%s: max |X − USVᵀ| = %.3g, want ≤ %.3g", name, got, SVDTolerance*smax)
	}
	for _, f := range []struct {
		side string
		m    *Dense
	}{{"U", d.U}, {"V", d.V}} {
		g := f.m.T().Mul(f.m)
		for i := 0; i < g.Rows(); i++ {
			for j := 0; j < g.Cols(); j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				got := g.At(i, j)
				if d.S[i] <= SVDTolerance*smax || d.S[j] <= SVDTolerance*smax {
					if i != j || got == 0 {
						continue
					}
				}
				if math.Abs(got-want) > SVDTolerance {
					t.Errorf("%s: (%sᵀ%s)[%d,%d] = %.17g, want %v", name, f.side, f.side, i, j, got, want)
					return
				}
			}
		}
	}
}

// TestSVDQRPathMeetsTolerance compares the QR-preconditioned path with
// plain Jacobi on the same vectors: singular values agree within
// SVDTolerance relative to the largest, and both decompositions meet the
// reconstruction and orthonormality contract.
func TestSVDQRPathMeetsTolerance(t *testing.T) {
	lowRank := func(r *rand.Rand, rows, cols, rank int) *Dense {
		return randomMatrix(r, rows, rank).Mul(randomMatrix(r, rank, cols))
	}
	duplicated := func(r *rand.Rand, rows, cols int) *Dense {
		x := randomMatrix(r, rows, cols)
		for i := rows / 2; i < rows; i++ {
			copy(x.RowView(i), x.RowView(i-rows/2))
		}
		return x
	}
	cases := []struct {
		name string
		x    *Dense
	}{
		{"127x768", randomMatrix(rand.New(rand.NewSource(1)), 127, 768)},
		{"53x768", randomMatrix(rand.New(rand.NewSource(2)), 53, 768)},
		{"768x127", randomMatrix(rand.New(rand.NewSource(3)), 768, 127)},
		{"300x384 rank 40", lowRank(rand.New(rand.NewSource(4)), 300, 384, 40)},
		{"60x400 duplicate rows", duplicated(rand.New(rand.NewSource(5)), 60, 400)},
	}
	for _, c := range cases {
		plain := computeSVD(c.x, jacobiSVD)
		qr := computeSVD(c.x, qrJacobiSVD)
		if !plain.Converged || !qr.Converged {
			t.Fatalf("%s: converged plain %v, QR %v", c.name, plain.Converged, qr.Converged)
		}
		smax := plain.S[0]
		worst := 0.0
		for i := range plain.S {
			worst = math.Max(worst, math.Abs(qr.S[i]-plain.S[i])/smax)
		}
		if worst > SVDTolerance {
			t.Errorf("%s: singular values differ from plain Jacobi by %.3g·s_max", c.name, worst)
		}
		svdContract(t, c.name+" plain", c.x, plain)
		svdContract(t, c.name+" QR", c.x, qr)
	}
}

// benchmarkComputeSVD times the exact SVD of a seeded Gaussian rows×cols
// matrix. 127×768 is the shape of Algorithm 1's FormulaOne fit in the
// paper's OC3-FO scenario at dim 768; 53×768 that of an OC3-sized schema.
func benchmarkComputeSVD(b *testing.B, rows, cols int) {
	x := randomMatrix(rand.New(rand.NewSource(1)), rows, cols)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svdSink = ComputeSVD(x)
	}
}

// svdSink keeps the benchmarked decomposition observable.
var svdSink *SVD

func BenchmarkComputeSVD127x768(b *testing.B) { benchmarkComputeSVD(b, 127, 768) }

func BenchmarkComputeSVD53x768(b *testing.B) { benchmarkComputeSVD(b, 53, 768) }

// A non-finite input never satisfies the Jacobi stopping rule, so both the
// plain and the QR-preconditioned path exhaust the sweep budget and report
// it through Converged.
func TestSVDNonConvergenceOnBothPaths(t *testing.T) {
	for _, shape := range [][2]int{{6, 5}, {3, 10}, {10, 3}} {
		x := randomMatrix(rand.New(rand.NewSource(6)), shape[0], shape[1])
		x.Set(1, 1, math.NaN())
		if d := ComputeSVD(x); d.Converged {
			t.Errorf("%dx%d with a NaN reported convergence", shape[0], shape[1])
		}
	}
}
