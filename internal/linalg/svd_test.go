package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func TestSVDReconstructsMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][2]int{{2, 2}, {3, 3}, {4, 4}, {3, 5}, {5, 3}, {1, 4}, {4, 1}} {
		a := randomMatrix(rng, dims[0], dims[1])
		d, err := ComputeSVD(a)
		if err != nil {
			t.Fatal(err)
		}
		rec := d.Reconstruct(len(d.S))
		if !rec.Equal(a, 1e-8) {
			t.Fatalf("full reconstruction of %dx%d differs:\nA=\n%v\nrec=\n%v", dims[0], dims[1], a, rec)
		}
		// Singular values sorted non-increasing and non-negative.
		for i := 1; i < len(d.S); i++ {
			if d.S[i] > d.S[i-1]+1e-12 {
				t.Fatalf("singular values not sorted: %v", d.S)
			}
		}
		for _, s := range d.S {
			if s < 0 {
				t.Fatalf("negative singular value: %v", d.S)
			}
		}
	}
}

func TestSVDNilMatrix(t *testing.T) {
	if _, err := ComputeSVD(nil); err == nil {
		t.Fatal("nil matrix accepted")
	}
}

func TestSVDKnownValues(t *testing.T) {
	// diag(3, 2) has singular values 3 and 2.
	a, _ := NewMatrixFromSlice(2, 2, []float64{3, 0, 0, 2})
	d, err := ComputeSVD(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.S[0]-3) > 1e-10 || math.Abs(d.S[1]-2) > 1e-10 {
		t.Fatalf("singular values = %v, want [3 2]", d.S)
	}
	// Rank-one matrix: second singular value ~0.
	r1 := OuterProduct(1, []float64{1, 1}, []float64{0.5, 0.5})
	d1, err := ComputeSVD(r1)
	if err != nil {
		t.Fatal(err)
	}
	if d1.S[1] > 1e-10 {
		t.Fatalf("rank-1 matrix has σ2 = %v", d1.S[1])
	}
}

func TestSVDZeroMatrix(t *testing.T) {
	a := NewMatrix(3, 3)
	d, err := ComputeSVD(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range d.S {
		if s != 0 {
			t.Fatalf("zero matrix singular values = %v", d.S)
		}
	}
	if !d.Reconstruct(3).Equal(a, 0) {
		t.Fatal("zero matrix reconstruction not zero")
	}
}

func TestSVDOrthogonalColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomMatrix(rng, 4, 4)
	d, err := ComputeSVD(a)
	if err != nil {
		t.Fatal(err)
	}
	checkOrthonormal := func(name string, m *Matrix) {
		t.Helper()
		for p := 0; p < m.Cols(); p++ {
			for q := p; q < m.Cols(); q++ {
				dot := 0.0
				for i := 0; i < m.Rows(); i++ {
					dot += m.At(i, p) * m.At(i, q)
				}
				want := 0.0
				if p == q {
					want = 1
				}
				if math.Abs(dot-want) > 1e-8 {
					t.Fatalf("%s columns %d,%d dot = %v, want %v", name, p, q, dot, want)
				}
			}
		}
	}
	checkOrthonormal("U", d.U)
	checkOrthonormal("V", d.V)
}

func TestRank1ApproximationOfRank1IsExact(t *testing.T) {
	r1 := OuterProduct(2.5, []float64{0.6, 0.8}, []float64{1 / math.Sqrt2, 1 / math.Sqrt2})
	approx, err := Rank1Approximation(r1)
	if err != nil {
		t.Fatal(err)
	}
	if !approx.Equal(r1, 1e-9) {
		t.Fatalf("rank-1 approximation of rank-1 matrix not exact:\n%v\n%v", r1, approx)
	}
	dist, err := DistanceToRank1(r1)
	if err != nil {
		t.Fatal(err)
	}
	if dist > 1e-9 {
		t.Fatalf("DistanceToRank1 of rank-1 matrix = %v", dist)
	}
}

func TestDistanceToRank1MatchesExplicitResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		a := randomMatrix(rng, 3, 3)
		approx, err := Rank1Approximation(a)
		if err != nil {
			t.Fatal(err)
		}
		explicit, err := a.FrobeniusDistance(approx)
		if err != nil {
			t.Fatal(err)
		}
		viaSVD, err := DistanceToRank1(a)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(explicit-viaSVD) > 1e-8 {
			t.Fatalf("residual mismatch: explicit %v vs svd %v", explicit, viaSVD)
		}
	}
}

func TestSpammerConfusionMatricesAreNearRank1(t *testing.T) {
	// Uniform spammer: only one column non-zero → rank 1 → distance 0.
	uniform, _ := NewMatrixFromSlice(2, 2, []float64{0, 1, 0, 1})
	du, err := DistanceToRank1(uniform)
	if err != nil {
		t.Fatal(err)
	}
	if du > 1e-10 {
		t.Fatalf("uniform spammer distance = %v, want 0", du)
	}
	// Random spammer: identical rows → rank 1 → distance 0.
	random, _ := NewMatrixFromSlice(2, 2, []float64{0.5, 0.5, 0.5, 0.5})
	dr, err := DistanceToRank1(random)
	if err != nil {
		t.Fatal(err)
	}
	if dr > 1e-10 {
		t.Fatalf("random spammer distance = %v, want 0", dr)
	}
	// Reliable worker: identity-like → distance large (σ2 = accuracy-ish).
	reliable, _ := NewMatrixFromSlice(2, 2, []float64{0.95, 0.05, 0.05, 0.95})
	drel, err := DistanceToRank1(reliable)
	if err != nil {
		t.Fatal(err)
	}
	if drel < 0.5 {
		t.Fatalf("reliable worker distance = %v, want > 0.5", drel)
	}
}

// Property: Eckart–Young — the rank-1 SVD truncation is never worse than any
// sampled rank-1 competitor of the form x·yᵀ.
func TestEckartYoungProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomMatrix(rng, 3, 3)
		best, err := DistanceToRank1(a)
		if err != nil {
			return false
		}
		for trial := 0; trial < 10; trial++ {
			x := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			y := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			competitor := OuterProduct(1, x, y)
			dist, err := a.FrobeniusDistance(competitor)
			if err != nil {
				return false
			}
			if dist < best-1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the Frobenius norm equals the l2 norm of the singular values.
func TestFrobeniusEqualsSingularValuesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomMatrix(rng, 4, 3)
		d, err := ComputeSVD(a)
		if err != nil {
			return false
		}
		return math.Abs(a.FrobeniusNorm()-Norm2(d.S)) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
