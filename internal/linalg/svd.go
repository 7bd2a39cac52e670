package linalg

import (
	"fmt"
	"math"
	"sort"
)

// SVD holds a thin singular value decomposition A = U·diag(S)·Vᵀ.
// U is rows×p, V is cols×p and S has length p = min(rows, cols).
// Singular values are sorted in non-increasing order.
type SVD struct {
	U *Matrix
	S []float64
	V *Matrix
}

// svdMaxSweeps bounds the number of Jacobi sweeps. Small matrices converge in
// a handful of sweeps; the bound only protects against pathological input.
const svdMaxSweeps = 60

// ComputeSVD computes the singular value decomposition of a (not necessarily
// square) matrix using one-sided Jacobi rotations. The method is numerically
// robust for the small confusion matrices this library works with
// (typically 2×2 to ~10×10).
func ComputeSVD(a *Matrix) (*SVD, error) {
	if a == nil {
		return nil, fmt.Errorf("linalg: nil matrix")
	}
	// One-sided Jacobi works on the columns; make sure rows >= cols by
	// transposing if necessary and swapping U/V at the end.
	transposed := false
	work := a.Clone()
	if work.rows < work.cols {
		work = work.Transpose()
		transposed = true
	}
	rows, cols := work.rows, work.cols

	// V accumulates the right singular vectors of `work`.
	v := Identity(cols)

	eps := 1e-12
	for sweep := 0; sweep < svdMaxSweeps; sweep++ {
		offDiag := 0.0
		for p := 0; p < cols-1; p++ {
			for q := p + 1; q < cols; q++ {
				// Compute the 2×2 Gram sub-matrix of columns p and q.
				alpha, beta, gamma := 0.0, 0.0, 0.0
				for i := 0; i < rows; i++ {
					ap := work.At(i, p)
					aq := work.At(i, q)
					alpha += ap * ap
					beta += aq * aq
					gamma += ap * aq
				}
				offDiag += math.Abs(gamma)
				if math.Abs(gamma) <= eps*math.Sqrt(alpha*beta) {
					continue
				}
				// Jacobi rotation that annihilates gamma.
				zeta := (beta - alpha) / (2 * gamma)
				t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				for i := 0; i < rows; i++ {
					ap := work.At(i, p)
					aq := work.At(i, q)
					work.Set(i, p, c*ap-s*aq)
					work.Set(i, q, s*ap+c*aq)
				}
				for i := 0; i < cols; i++ {
					vp := v.At(i, p)
					vq := v.At(i, q)
					v.Set(i, p, c*vp-s*vq)
					v.Set(i, q, s*vp+c*vq)
				}
			}
		}
		if offDiag < eps {
			break
		}
	}

	// Singular values are the column norms of the rotated matrix; the left
	// singular vectors are the normalized columns.
	s := make([]float64, cols)
	u := NewMatrix(rows, cols)
	for j := 0; j < cols; j++ {
		norm := 0.0
		for i := 0; i < rows; i++ {
			norm += work.At(i, j) * work.At(i, j)
		}
		norm = math.Sqrt(norm)
		s[j] = norm
		if norm > eps {
			for i := 0; i < rows; i++ {
				u.Set(i, j, work.At(i, j)/norm)
			}
		} else {
			// Zero singular value: leave the column of U as zeros; callers
			// only use the dominant singular triples.
			s[j] = 0
		}
	}

	// Sort singular triples by decreasing singular value.
	order := make([]int, cols)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return s[order[a]] > s[order[b]] })
	sSorted := make([]float64, cols)
	uSorted := NewMatrix(rows, cols)
	vSorted := NewMatrix(cols, cols)
	for newIdx, oldIdx := range order {
		sSorted[newIdx] = s[oldIdx]
		for i := 0; i < rows; i++ {
			uSorted.Set(i, newIdx, u.At(i, oldIdx))
		}
		for i := 0; i < cols; i++ {
			vSorted.Set(i, newIdx, v.At(i, oldIdx))
		}
	}

	if transposed {
		// work = aᵀ = U S Vᵀ  ⇒  a = V S Uᵀ.
		return &SVD{U: vSorted, S: sSorted, V: uSorted}, nil
	}
	return &SVD{U: uSorted, S: sSorted, V: vSorted}, nil
}

// Reconstruct rebuilds the matrix from the first rank singular triples.
// rank values larger than the number of singular values are clamped.
func (d *SVD) Reconstruct(rank int) *Matrix {
	if rank > len(d.S) {
		rank = len(d.S)
	}
	rows, cols := d.U.Rows(), d.V.Rows()
	out := NewMatrix(rows, cols)
	for r := 0; r < rank; r++ {
		sigma := d.S[r]
		if sigma == 0 {
			continue
		}
		for i := 0; i < rows; i++ {
			ui := d.U.At(i, r)
			if ui == 0 {
				continue
			}
			for j := 0; j < cols; j++ {
				out.data[i*cols+j] += sigma * ui * d.V.At(j, r)
			}
		}
	}
	return out
}

// Rank1Approximation returns the best rank-one approximation of a in the
// Frobenius norm (Eckart–Young): σ₁·u₁·v₁ᵀ.
func Rank1Approximation(a *Matrix) (*Matrix, error) {
	d, err := ComputeSVD(a)
	if err != nil {
		return nil, err
	}
	return d.Reconstruct(1), nil
}

// DistanceToRank1 returns min_{rank(B)=1} ‖A − B‖_F, i.e. the Frobenius norm
// of the residual after removing the dominant singular triple:
// sqrt(Σ_{i≥2} σ_i²). This is the spammer score of Eq. 11.
func DistanceToRank1(a *Matrix) (float64, error) {
	d, err := ComputeSVD(a)
	if err != nil {
		return 0, err
	}
	s := 0.0
	for i := 1; i < len(d.S); i++ {
		s += d.S[i] * d.S[i]
	}
	return math.Sqrt(s), nil
}
