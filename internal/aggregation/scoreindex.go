package aggregation

import (
	"math"

	"crowdval/internal/model"
)

// This file implements the delta-accelerated guidance-scoring substrate. The
// uncertainty-driven strategy of §5.2 must evaluate, per candidate object o
// and label l, the uncertainty of the probabilistic answer set re-aggregated
// under the hypothetical validation e(o) = l. Running a full warm EM per
// (candidate, label) — the exact reference scorer — costs O(#answers · m ·
// iterations) per hypothesis, which on the 50 000 × 500 serving workload puts
// one NextObject call at hundreds of warm-EM runs while a delta ingest costs
// milliseconds. The hypothetical validation, however, dirties exactly the
// same frontier the delta-ingest path exploits: object o plus the workers who
// answered o. The ScoreIndex therefore precomputes the per-aggregation state
// once (log-priors, the k·m² log-confusion table, per-object entropies), and
// a HypoScratch replays one frontier-restricted E/M/E pass per hypothesis —
// pin row o, re-estimate the confusion rows of o's workers, recompute the
// posterior rows of the objects those workers answered — accumulating the
// entropy change against the maintained entropy index. One candidate costs
// O(answers-on-o × its-workers' rows) instead of a full EM re-convergence.
//
// Two scratches implement that pass on the same floats. The scalar scratch
// (NewScratch) is the reference: it replays the pass once per label. The
// blocked scratch (NewBlockedScratch, scoreindex_blocked.go) is what the
// engine runs: it stages the confusion blocks of every label first and then
// walks the ripple set once, computing every label's row per ripple object
// in that single visit, from a contiguous CSR copy of the object adjacency
// the index keeps next to its log tables. Both return the same bits.
//
// The result is a first-order estimate of the exact conditional uncertainty:
// it captures the hypothesis' local ripple (the frontier's rows and its
// workers' confusion rows) exactly where hypothetical validations act
// locally, but not the global re-convergence cascades the exact warm EM can
// run into — on weakly anchored states a single pinned row can shift every
// worker's confusion over tens of full iterations, a genuinely global effect
// no frontier-restricted pass can see (iterating the local pass converges
// immediately and does not help; the parity suite measured it). The exact
// full-EM scorer therefore remains the reference, and the parity suites gate
// the approximation at documented tolerances: per-hypothesis H(P | o)
// accuracy on locally-acting states (aggregation suite, 5e-2), and
// statistical selection regret on seeded serving-shaped histories (root
// session suite), mirroring the delta/full aggregation contract of the
// ingest path.

// ScoreIndex is the per-aggregation state shared by all guidance scoring of
// one probabilistic answer set: per-object entropies (computed once instead
// of once per sort comparison), the total uncertainty, and — for the
// delta-accelerated hypothetical scorer — the log-prior and log-confusion
// tables of the current fixed point. An index describes exactly one
// aggregation result; when the state moves to a successor result the index is
// either patched onto it in place (Rebase — the maintained-view path, cost
// proportional to what actually changed) or rebuilt from scratch. The index
// is immutable between those transitions and safe for concurrent readers;
// Rebase mutates it and must be serialized against readers by the caller
// (the engine runs it under its selection lock, with mutations excluded).
// Per-goroutine mutable state lives in HypoScratch values.
type ScoreIndex struct {
	answers   *model.AnswerSet
	probSet   *model.ProbabilisticAnswerSet
	n, m      int
	smoothing float64

	entropies []float64
	totalH    float64

	// Hypothetical-scoring tables, built by EnsureHypoTables. logConf holds
	// per-worker m² blocks in true-label-major layout (block[l·m + a] =
	// log F(l, a)); logConfT holds the same values transposed into
	// answered-label-major layout (blockT[a·m + l]), so the blocked E-step
	// reads the m-vector of one observed answer as one contiguous run (see
	// NewBlockedScratch). Both tables are filled from the same floats, so
	// the two layouts are bit-identical cell for cell.
	logPriors []float64
	logConf   []float64
	logConfT  []float64

	// adjStart/adj are a compressed-sparse-row copy of the object adjacency
	// (object o's answers are adj[adjStart[o]:adjStart[o+1]], sorted by
	// worker like AnswerSet.ObjectView), read by the blocked scorer's ripple
	// walk instead of chasing one slice header per object. Filled with the
	// hypothetical tables and refilled by every Rebase, so an in-place
	// ingest followed by the Rebase that follows its aggregation never
	// leaves the copy stale; no scorer ever writes it.
	adjStart []int
	adj      []adjAnswer
}

// adjAnswer is one CSR entry of ScoreIndex.adj: a worker and the label it
// gave, packed into 8 bytes.
type adjAnswer struct {
	worker, label int32
}

// NewScoreIndex builds the scoring index for one aggregation result. The
// answer set must be the one the probabilistic state was aggregated over
// (for engine use: the quarantine-masked working set). cfg supplies the
// M-step smoothing the hypothetical confusion re-estimates mirror.
//
// Only the entropy index is computed eagerly — O(n·m), the part every
// strategy needs. Callers that score hypotheses (the delta-accelerated
// uncertainty scorer) must call EnsureHypoTables once before fanning out.
func NewScoreIndex(answers *model.AnswerSet, p *model.ProbabilisticAnswerSet, cfg EMConfig) *ScoreIndex {
	n, m := p.Assignment.NumObjects(), p.Assignment.NumLabels()
	ix := &ScoreIndex{
		answers:   answers,
		probSet:   p,
		n:         n,
		m:         m,
		smoothing: cfg.smoothing(),
		entropies: make([]float64, n),
	}
	for o := 0; o < n; o++ {
		h := ObjectEntropy(p.Assignment, o)
		ix.entropies[o] = h
		ix.totalH += h
	}
	return ix
}

// TotalUncertainty returns H(P) of the indexed probabilistic answer set. The
// accumulation order matches Uncertainty, so the value is bit-identical.
func (ix *ScoreIndex) TotalUncertainty() float64 { return ix.totalH }

// ObjectEntropy returns the precomputed entropy of one object.
func (ix *ScoreIndex) ObjectEntropy(o int) float64 { return ix.entropies[o] }

// NumObjects returns the number of objects the index covers.
func (ix *ScoreIndex) NumObjects() int { return ix.n }

// EnsureHypoTables builds the log-prior and log-confusion tables the
// hypothetical scorer reads. It is idempotent but not safe for concurrent
// first calls: build the tables once (e.g. while holding the selection lock)
// before concurrent scorers share the index.
func (ix *ScoreIndex) EnsureHypoTables() {
	if ix.logConf != nil {
		return
	}
	m := ix.m
	logPriors := make([]float64, m)
	fillLogPriors(logPriors, ix.probSet.Assignment)
	logConf := make([]float64, len(ix.probSet.Confusions)*m*m)
	logConfT := make([]float64, len(logConf))
	for w := range ix.probSet.Confusions {
		fillLogConfBlock(logConf[w*m*m:(w+1)*m*m], ix.probSet.Confusions[w], m)
		fillLogConfBlockT(logConfT[w*m*m:(w+1)*m*m], ix.probSet.Confusions[w], m)
	}
	ix.logPriors = logPriors
	ix.logConf = logConf
	ix.logConfT = logConfT
	ix.fillAdjacency()
}

// fillAdjacency (re)builds the CSR copy of the object adjacency from the
// answer set, reusing the existing buffers. O(#answers); it runs only where
// the hypothetical tables are (re)filled — serialized before scoring fans
// out — never per candidate and never on a memoized ranking.
func (ix *ScoreIndex) fillAdjacency() {
	if cap(ix.adjStart) < ix.n+1 {
		ix.adjStart = make([]int, ix.n+1)
	}
	ix.adjStart = ix.adjStart[:ix.n+1]
	if cap(ix.adj) < ix.answers.AnswerCount() {
		ix.adj = make([]adjAnswer, 0, ix.answers.AnswerCount())
	}
	adj := ix.adj[:0]
	for o := 0; o < ix.n; o++ {
		ix.adjStart[o] = len(adj)
		for _, wa := range ix.answers.ObjectView(o) {
			adj = append(adj, adjAnswer{worker: int32(wa.Worker), label: int32(wa.Label)})
		}
	}
	ix.adjStart[ix.n] = len(adj)
	ix.adj = adj
}

// fillLogPriors writes the log class priors of the assignment into dst,
// flooring hard zeros at 1e-12 like the hypo tables do.
func fillLogPriors(dst []float64, u *model.AssignmentMatrix) {
	for l, p := range u.Priors() {
		if p <= 0 {
			p = 1e-12
		}
		dst[l] = math.Log(p)
	}
}

// HypoScratch is the per-goroutine scratch state of the delta-accelerated
// hypothetical scorer: assignment-row buffers, the frontier M-step's
// confusion accumulator, per-touched-worker log-confusion blocks, and a
// stamp array that deduplicates ripple objects. A scratch is owned by exactly
// one goroutine; scoring a candidate allocates nothing once the block buffer
// has grown to the candidate's answer degree (asserted by a
// testing.AllocsPerRun test).
type HypoScratch struct {
	ix *ScoreIndex
	// hypoRow is the pinned point-mass row of the candidate object (for a
	// blocked scratch, one such row per staged label).
	hypoRow []float64
	// row is the posterior recompute buffer for ripple objects.
	row []float64
	// conf is the reusable confusion matrix of the scalar frontier M-step.
	conf *model.ConfusionMatrix
	// workers and blocks hold the candidate's answering workers and their
	// re-estimated log-confusion blocks (m² each). A scalar scratch holds
	// one label's blocks, true-label-major like ScoreIndex.logConf; a
	// blocked one holds every staged label's blocks, answered-label-major
	// like ScoreIndex.logConfT (see fusedConditionalUncertainty).
	workers []int
	blocks  []float64
	// seen/stamp deduplicate ripple objects shared by several workers.
	seen  []int32
	stamp int32
	// blocked selects the fused walk over the transposed tables
	// (NewBlockedScratch); the fields below belong to it alone. confT holds
	// the M-step's answered-label-major soft counts, one m² block per staged
	// label; slots maps a worker to its staged blocks (valid while its stamp
	// is current); labels are the staged labels (p > 0); rows holds one
	// posterior row per staged label and deltaH their entropy changes.
	blocked bool
	confT   []float64
	slots   []workerSlot
	labels  []int
	rows    []float64
	deltaH  []float64
}

// NewScratch prepares a per-goroutine scratch for hypothetical scoring.
// EnsureHypoTables must have been called on the index.
func (ix *ScoreIndex) NewScratch() *HypoScratch {
	ix.EnsureHypoTables()
	return &HypoScratch{
		ix:      ix,
		hypoRow: make([]float64, ix.m),
		row:     make([]float64, ix.m),
		conf:    model.NewConfusionMatrix(ix.m),
		seen:    make([]int32, ix.n),
	}
}

// ConditionalUncertainty estimates H(P | o) (Eq. 8) with one
// frontier-restricted hypothetical EM pass per label: the expectation, over
// the candidate's current label distribution, of the total uncertainty after
// the hypothetical validation e(o) = l. Labels with zero probability are
// skipped, mirroring the exact scorer. A blocked scratch runs the passes of
// all labels in one fused ripple walk; the result carries the same bits.
func (sc *HypoScratch) ConditionalUncertainty(object int) float64 {
	if sc.blocked {
		return sc.fusedConditionalUncertainty(object)
	}
	ix := sc.ix
	expected := 0.0
	for l := 0; l < ix.m; l++ {
		p := ix.probSet.Assignment.Prob(object, model.Label(l))
		if p <= 0 {
			continue
		}
		expected += p * sc.hypotheticalUncertainty(object, model.Label(l))
	}
	return expected
}

// hypotheticalUncertainty estimates the total uncertainty of the answer set
// under the hypothetical validation e(object) = label: pin the object's row
// to the point mass (its entropy drops to zero), re-estimate the confusion
// rows of the workers who answered it against the pinned row (frontier
// M-step), and recompute the posterior rows of every other object those
// workers answered (frontier E-step), folding each entropy change into the
// maintained index total. Priors stay at the current fixed point — pinning
// one row moves them by O(1/n), part of the documented approximation.
func (sc *HypoScratch) hypotheticalUncertainty(object int, label model.Label) float64 {
	ix := sc.ix
	m := ix.m
	mm := m * m
	for l := range sc.hypoRow {
		sc.hypoRow[l] = 0
	}
	sc.hypoRow[label] = 1

	// Frontier M-step: one re-estimated log-confusion block per answering
	// worker, staged in scratch so the shared index stays untouched.
	touched := ix.answers.ObjectView(object)
	sc.workers = sc.workers[:0]
	if need := len(touched) * mm; cap(sc.blocks) < need {
		sc.blocks = make([]float64, need)
	} else {
		sc.blocks = sc.blocks[:need]
	}
	for i, wa := range touched {
		sc.workers = append(sc.workers, wa.Worker)
		reestimateConfusionHypo(sc.conf, ix.answers, ix.probSet.Assignment, wa.Worker, ix.smoothing, object, sc.hypoRow)
		fillLogConfBlock(sc.blocks[i*mm:(i+1)*mm], sc.conf, m)
	}

	// The pinned row's entropy drops to zero.
	deltaH := -ix.entropies[object]

	// Frontier E-step: recompute the posterior row of every object the
	// touched workers answered, with the staged confusion blocks substituted
	// for theirs. Objects shared by several touched workers are recomputed
	// once (stamp dedupe); validated objects stay pinned at zero entropy.
	sc.stamp++
	validation := ix.probSet.Validation
	for _, w := range sc.workers {
		for _, oa := range ix.answers.WorkerView(w) {
			o := oa.Object
			if o == object || sc.seen[o] == sc.stamp {
				continue
			}
			sc.seen[o] = sc.stamp
			if validation.Get(o) != model.NoLabel {
				continue
			}
			sc.posteriorRowHypo(o)
			deltaH += entropyOfRow(sc.row) - ix.entropies[o]
		}
	}

	h := ix.totalH + deltaH
	if h < 0 {
		h = 0
	}
	return h
}

// posteriorRowHypo computes one ripple object's E-step posterior into sc.row,
// mirroring posteriorRowInto but reading the staged log-confusion blocks for
// the touched workers and the shared index table for everyone else.
func (sc *HypoScratch) posteriorRowHypo(o int) {
	ix := sc.ix
	m := ix.m
	mm := m * m
	row := sc.row
	copy(row, ix.logPriors)
	for _, wa := range ix.answers.ObjectView(o) {
		block := ix.logConf[wa.Worker*mm : (wa.Worker+1)*mm]
		for i, w := range sc.workers {
			if w == wa.Worker {
				block = sc.blocks[i*mm : (i+1)*mm]
				break
			}
		}
		lf := block[int(wa.Label):]
		for l := 0; l < m; l++ {
			row[l] += lf[l*m]
		}
	}
	maxLog := row[0]
	for l := 1; l < m; l++ {
		if row[l] > maxLog {
			maxLog = row[l]
		}
	}
	sum := 0.0
	for l := 0; l < m; l++ {
		row[l] = math.Exp(row[l] - maxLog)
		sum += row[l]
	}
	for l := 0; l < m; l++ {
		row[l] /= sum
	}
}

// entropyOfRow returns the Shannon entropy of one probability row, matching
// ObjectEntropy's guards.
func entropyOfRow(row []float64) float64 {
	h := 0.0
	for _, p := range row {
		if p > 0 {
			h -= p * math.Log(p)
		}
	}
	if h < 0 {
		h = 0
	}
	return h
}

// reestimateConfusionHypo is reestimateConfusion with the assignment row of
// hypoObject substituted by hypoRow — the frontier M-step of a hypothetical
// validation, which must not mutate the shared assignment matrix.
func reestimateConfusionHypo(c *model.ConfusionMatrix, answers *model.AnswerSet, u *model.AssignmentMatrix,
	w int, smoothing float64, hypoObject int, hypoRow []float64) {

	m := u.NumLabels()
	c.Reset()
	for _, oa := range answers.WorkerView(w) {
		if oa.Object == hypoObject {
			for l := 0; l < m; l++ {
				c.Add(model.Label(l), oa.Label, hypoRow[l])
			}
			continue
		}
		for l := 0; l < m; l++ {
			c.Add(model.Label(l), oa.Label, u.Prob(oa.Object, model.Label(l)))
		}
	}
	c.Smooth(smoothing)
}
