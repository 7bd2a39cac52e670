package guidance

import (
	"crowdval/internal/aggregation"
	"crowdval/internal/model"
)

// UncertaintyDriven selects the object whose validation is expected to reduce
// the uncertainty of the probabilistic answer set the most, i.e. the object
// with maximal information gain (§5.2, Eq. 8–10).
//
// Two scorers are available. The exact reference scorer re-runs a full
// warm-started EM per (candidate, label) hypothesis — the literal Eq. 8. With
// Context.DeltaScore set, the delta-accelerated scorer estimates each
// hypothesis with one frontier-restricted EM pass over the candidate's dirty
// frontier (the object plus its answering workers' rows; see
// aggregation.ScoreIndex), trading a documented information-gain tolerance
// for orders of magnitude in latency; with Context.BlockedRows (the engine's
// default) it prices all labels of a candidate in one fused ripple walk,
// bit-identical to one walk per label. Both scorers rank candidates
// deterministically, serial or parallel.
type UncertaintyDriven struct {
	// CandidateLimit restricts the expensive information-gain computation to
	// the CandidateLimit candidates with the highest entropy. Zero or
	// negative values evaluate every candidate.
	CandidateLimit int
}

// Name implements Strategy.
func (u *UncertaintyDriven) Name() string { return "uncertainty-driven" }

// Select implements Strategy.
func (u *UncertaintyDriven) Select(ctx *Context) (int, error) {
	candidates, newScorer, err := u.prepare(ctx)
	if err != nil {
		return -1, err
	}
	return scoreBest(ctx, candidates, newScorer)
}

// SelectK implements KSelector: the top-k candidates ranked by information
// gain.
func (u *UncertaintyDriven) SelectK(ctx *Context, k int) ([]ScoredObject, error) {
	candidates, newScorer, err := u.prepare(ctx)
	if err != nil {
		return nil, err
	}
	return scoreTopK(ctx, candidates, newScorer, k)
}

// prepare narrows the candidate set and builds the per-goroutine scorer
// factory for the configured scoring mode. It runs before scoring fans out,
// so the shared index — its hypothetical tables and CSR adjacency copy
// included — is fully built here; each scoring goroutine then owns one
// scratch and only reads the index.
func (u *UncertaintyDriven) prepare(ctx *Context) ([]int, func() scorerFunc, error) {
	candidates := ctx.candidates()
	if len(candidates) == 0 {
		return nil, nil, ErrNoCandidates
	}
	ix := ctx.index()
	candidates = topEntropyCandidates(ix, ctx.ProbSet.Assignment, candidates, u.CandidateLimit)
	currentH := ix.TotalUncertainty()
	if ctx.DeltaScore {
		blocked := ctx.BlockedRows
		return candidates, func() scorerFunc {
			sc := ix.NewScratch()
			if blocked {
				sc = ix.NewBlockedScratch()
			}
			return func(o int) (float64, error) {
				return currentH - sc.ConditionalUncertainty(o), nil
			}
		}, nil
	}
	return candidates, func() scorerFunc {
		// One scratch validation per scoring goroutine, set/unset per
		// hypothesis — not one Clone per (candidate, label).
		scratch := ctx.ProbSet.Validation.Clone()
		return func(o int) (float64, error) {
			conditional, err := conditionalUncertainty(ctx, o, scratch)
			if err != nil {
				return 0, err
			}
			return currentH - conditional, nil
		}
	}, nil
}

// InformationGain computes IG(o) = H(P) − H(P | o) for one object (Eq. 9).
// currentH is H(P); passing a negative value recomputes it.
//
// The conditional entropy H(P | o) (Eq. 8) is the expectation, over the
// current label distribution of o, of the uncertainty of the probabilistic
// answer set re-aggregated with the hypothetical expert input e(o) = l.
func InformationGain(ctx *Context, object int, currentH float64) (float64, error) {
	if currentH < 0 {
		currentH = aggregation.Uncertainty(ctx.ProbSet)
	}
	conditional, err := ConditionalUncertainty(ctx, object)
	if err != nil {
		return 0, err
	}
	return currentH - conditional, nil
}

// ConditionalUncertainty computes H(P | o) (Eq. 8) with the exact full-EM
// reference scorer: for every label l with non-zero probability, the answers
// are re-aggregated under the hypothetical validation e(o) = l and the
// resulting uncertainties are averaged, weighted by U(o, l).
func ConditionalUncertainty(ctx *Context, object int) (float64, error) {
	return conditionalUncertainty(ctx, object, ctx.ProbSet.Validation.Clone())
}

// conditionalUncertainty is ConditionalUncertainty against a caller-owned
// scratch validation, which it mutates and restores — the scoring loops hand
// in one scratch per goroutine instead of cloning the validation for every
// hypothesis. The scratch must equal ctx.ProbSet.Validation on entry and is
// returned to that state.
func conditionalUncertainty(ctx *Context, object int, scratch *model.Validation) (float64, error) {
	agg := ctx.aggregator()
	m := ctx.ProbSet.Assignment.NumLabels()
	expected := 0.0
	for l := 0; l < m; l++ {
		p := ctx.ProbSet.Assignment.Prob(object, model.Label(l))
		if p <= 0 {
			continue
		}
		scratch.Set(object, model.Label(l))
		res, err := aggregation.Do(ctx.ctx(), agg, ctx.Answers, scratch, ctx.ProbSet)
		scratch.Set(object, model.NoLabel)
		if err != nil {
			return 0, err
		}
		expected += p * aggregation.Uncertainty(res.ProbSet)
	}
	return expected, nil
}
