package aggregation

import "crowdval/internal/model"

// This file implements the maintained-view half of the ScoreIndex contract:
// instead of discarding the index on every aggregation and rebuilding it from
// scratch at the next selection (O(n·m) entropy scan plus an O(k·m²) table
// fill), the engine patches the existing index onto the successor
// aggregation result, touching only entries whose underlying rows actually
// changed. A delta aggregation's settle sweep rewrites every assignment row
// object (usually to bit-identical values outside the dirty frontier), so the
// patch diffs rows rather than trusting the frontier: a row that carries the
// same bits keeps its cached entropy, a row that moved is recomputed. The
// result is bit-identical to a from-scratch NewScoreIndex + EnsureHypoTables
// build — pinned by the differential suite — because every retained value is
// the same float and every recomputed value goes through the same functions
// in the same order, including the totalH re-sum, which deliberately re-adds
// all n entropies in index order (matching NewScoreIndex's accumulation
// exactly) instead of compensating the old total with deltas, so maintained
// totals never drift from rebuilt ones.

// ProbSet returns the probabilistic answer set this index currently
// describes. The engine compares it against its live state pointer to decide
// whether the index is current, patchable (Rebase), or must be rebuilt.
func (ix *ScoreIndex) ProbSet() *model.ProbabilisticAnswerSet { return ix.probSet }

// Rebase patches the index in place so it describes p instead of the
// aggregation result it was built for, and reports whether it succeeded.
// It fails (returning false, leaving the index unchanged and still valid for
// its original result) when the successor state is not shape-compatible: a
// different answer set (Grow, snapshot resume), changed dimensions, or a
// changed worker count. The caller must serialize Rebase against concurrent
// readers of the index.
//
// Cost is proportional to what changed: unchanged assignment rows are
// detected by a bitwise compare and keep their cached entropies; unchanged
// confusion matrices (pointer-equal or value-equal) keep their log blocks.
// Only moved rows are re-logged/re-entropied, and totalH is re-summed exactly
// as NewScoreIndex sums it whenever any entropy moved. When the hypothetical
// tables exist, the CSR copy of the object adjacency is refilled too.
func (ix *ScoreIndex) Rebase(answers *model.AnswerSet, p *model.ProbabilisticAnswerSet) bool {
	if p == nil || answers == nil || answers != ix.answers {
		return false
	}
	if p.Assignment.NumObjects() != ix.n || p.Assignment.NumLabels() != ix.m {
		return false
	}
	if len(p.Confusions) != len(ix.probSet.Confusions) {
		return false
	}

	old := ix.probSet
	if p.Assignment != old.Assignment {
		changed := false
		for o := 0; o < ix.n; o++ {
			if rowsEqual(old.Assignment.RowSlice(o), p.Assignment.RowSlice(o)) {
				continue
			}
			ix.entropies[o] = ObjectEntropy(p.Assignment, o)
			changed = true
		}
		if changed {
			// Re-sum in index order, exactly like NewScoreIndex, so the
			// maintained total carries the same bits as a rebuilt one.
			total := 0.0
			for _, h := range ix.entropies {
				total += h
			}
			ix.totalH = total
		}
	}

	if ix.logConf != nil {
		// Priors are a function of the whole assignment; recomputing them is
		// O(m) and always exact, so no diff is attempted.
		fillLogPriors(ix.logPriors, p.Assignment)
		mm := ix.m * ix.m
		for w := range p.Confusions {
			if confusionsEqual(old.Confusions[w], p.Confusions[w], ix.m) {
				continue
			}
			fillLogConfBlock(ix.logConf[w*mm:(w+1)*mm], p.Confusions[w], ix.m)
			fillLogConfBlockT(ix.logConfT[w*mm:(w+1)*mm], p.Confusions[w], ix.m)
		}
		// The answer set is the same value but may have been ingested into
		// in place; the CSR copy is O(#answers) to refill, so it is refilled
		// unconditionally rather than diffed.
		ix.fillAdjacency()
	}

	ix.probSet = p
	return true
}

// rowsEqual reports whether two probability rows carry identical bits. Plain
// == (not epsilon) on purpose: a row that moved by any amount must be
// recomputed for the maintained index to stay bit-identical to a rebuild.
func rowsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// confusionsEqual reports whether two confusion matrices carry identical
// bits (pointer equality short-circuits; m is small, so the cell compare is
// cheap relative to re-logging two m² blocks).
func confusionsEqual(a, b *model.ConfusionMatrix, m int) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	for l := 0; l < m; l++ {
		for a2 := 0; a2 < m; a2++ {
			if a.At(model.Label(l), model.Label(a2)) != b.At(model.Label(l), model.Label(a2)) {
				return false
			}
		}
	}
	return true
}
