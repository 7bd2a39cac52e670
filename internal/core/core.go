// Package core implements the guided answer-validation process — the primary
// contribution of the paper. It glues answer aggregation (i-EM), expert
// guidance (uncertainty-driven, worker-driven, hybrid), faulty-worker
// quarantining and the confirmation check for erroneous expert input into the
// iterative validation engine of Algorithm 1 (§3.2 and §5.4).
//
// The engine is a pay-as-you-go process: after every expert validation the
// probabilistic answer set is updated and a deterministic assignment can be
// instantiated at any time.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"crowdval/internal/aggregation"
	"crowdval/internal/cverr"
	"crowdval/internal/guidance"
	"crowdval/internal/model"
	"crowdval/internal/spamdetect"
)

// Expert is the validating expert: asked about an object, it returns the
// label it asserts to be correct. Implementations may be interactive (a
// human behind a UI) or simulated (an oracle over the ground truth).
type Expert interface {
	ValidateObject(object int) (model.Label, error)
}

// ExpertFunc adapts a plain function to the Expert interface.
type ExpertFunc func(object int) (model.Label, error)

// ValidateObject implements Expert.
func (f ExpertFunc) ValidateObject(object int) (model.Label, error) { return f(object) }

// Goal is a predicate over the engine state; the validation process stops as
// soon as the goal is satisfied. A nil goal never stops the process early.
type Goal func(e *Engine) bool

// UncertaintyBelow returns a goal that is satisfied once the total
// uncertainty H(P) of the probabilistic answer set drops below threshold.
func UncertaintyBelow(threshold float64) Goal {
	return func(e *Engine) bool { return e.Uncertainty() < threshold }
}

// Config parameterizes the validation engine.
type Config struct {
	// Aggregator computes the probabilistic answer set in the "conclude"
	// step. Nil uses the incremental i-EM aggregator.
	Aggregator aggregation.Aggregator
	// Strategy selects the next object to validate. Nil uses the hybrid
	// strategy.
	Strategy guidance.Strategy
	// Detector assesses workers for the worker-driven guidance and the
	// quarantine. Nil uses default thresholds.
	Detector *spamdetect.Detector
	// Confirmation enables the periodic check for erroneous expert
	// validations (§5.5). Nil disables the check.
	Confirmation *guidance.ConfirmationCheck
	// Budget caps the number of expert validations. Zero or negative means
	// "up to one validation per object".
	Budget int
	// Goal optionally stops the process before the budget is exhausted.
	Goal Goal
	// HandleFaultyWorkers enables the quarantine of detected faulty workers
	// when the worker-driven branch selected the object (Algorithm 1,
	// line 12). It is enabled by default through NewEngine when the hybrid
	// or worker-driven strategy is used.
	HandleFaultyWorkers bool
	// Parallel enables parallel candidate scoring in the guidance step.
	// Because the scorers themselves fan out across MaxParallelism
	// goroutines, the engine hands them serial variants of the inner
	// components: a Parallelism-1 copy of the detector, and — for
	// aggregators implementing aggregation.Sharded (the EM and
	// majority-vote aggregators, including the nil default) — the
	// aggregator's SerialVariant. Other aggregators are handed to scoring
	// as-is and must be safe for concurrent Aggregate calls.
	Parallel bool
	// MaxParallelism caps the number of goroutines of the parallel stages:
	// guidance candidate scoring, the sharded E-/M-steps of the default
	// aggregator and the sharded worker assessment of the default detector
	// (< 1: GOMAXPROCS). Aggregation and detection results are identical
	// for every setting.
	MaxParallelism int
	// Delta enables the delta-incremental aggregation path: the engine
	// tracks the dirty object/worker frontier of every mutation (ingested
	// answers, validations, quarantine changes, growth) and hands it to a
	// delta-capable aggregator, which refines only the frontier before a
	// full-sweep settle phase re-establishes the global fixed point. Results
	// are fixed points of the full EM within the configured tolerance, so
	// they agree with full recomputes up to that tolerance (not bit-for-bit).
	// It applies to the default i-EM aggregator and to any cfg.Aggregator
	// implementing aggregation.DeltaAggregator; other aggregators ignore it.
	Delta aggregation.DeltaConfig
	// DeltaScoring routes guidance candidate scoring through the
	// delta-accelerated hypothetical scorers (guidance.Context.DeltaScore):
	// a hypothetical validation of object o dirties only o plus its
	// answering workers, so one candidate costs a frontier-restricted EM
	// pass instead of a full warm EM re-aggregation. Selections agree with
	// the exact full-EM scorer up to a documented information-gain tolerance
	// (the worker-driven scorer is exact); like Delta it is opt-in because
	// selections are no longer bit-identical to the reference scorer.
	DeltaScoring bool
	// DisableSelectionCache turns off the maintained-view serving caches: the
	// in-place ScoreIndex patching (Rebase) and the per-strategy ranking
	// memoization. Every aggregation then invalidates the scoring index and
	// every selection rebuilds and rescans — the pre-maintained-view behavior.
	// It is a pure performance knob for benchmarking and differential testing:
	// selections are bit-identical either way.
	DisableSelectionCache bool
	// Rand drives stochastic components (hybrid roulette wheel). Nil uses a
	// fixed seed so runs are reproducible.
	Rand *rand.Rand
}

// IterationRecord captures everything that happened in one iteration of the
// validation process; the experiment harness consumes these records.
type IterationRecord struct {
	// Iteration is the 1-based index of the validation step.
	Iteration int
	// Object and Label are the validated object and the expert's answer.
	Object int
	Label  model.Label
	// WorkerDrivenUsed reports whether the worker-driven branch chose the
	// object (always false for non-hybrid strategies other than
	// WorkerDriven itself).
	WorkerDrivenUsed bool
	// ErrorRate is ε_i = 1 − U_{i-1}(o, l): how much the expert's answer
	// surprised the previous aggregation.
	ErrorRate float64
	// HybridWeight is z_{i+1} after the update (0 for non-hybrid runs).
	HybridWeight float64
	// FaultyWorkers is the number of workers flagged in this iteration.
	FaultyWorkers int
	// MaskedWorkers and RestoredWorkers list quarantine changes.
	MaskedWorkers   []int
	RestoredWorkers []int
	// Uncertainty is H(P) after the conclude step.
	Uncertainty float64
	// EMIterations is the number of EM iterations of the conclude step.
	EMIterations int
	// ConfirmationSuspects lists validations flagged as erroneous by the
	// confirmation check in this iteration (empty when the check did not
	// run or found nothing).
	ConfirmationSuspects []guidance.SuspectValidation
	// RevisedObjects lists objects whose validation was re-elicited after
	// being flagged; each revision counts as one unit of expert effort.
	RevisedObjects []int
}

// Engine drives the iterative validation process over one answer set.
type Engine struct {
	cfg Config

	original *model.AnswerSet
	// working is the answer set the aggregation sees; quarantined workers'
	// answers are masked out of it.
	working    *model.AnswerSet
	validation *model.Validation
	probSet    *model.ProbabilisticAnswerSet
	assignment model.DeterministicAssignment

	aggregator aggregation.Aggregator
	strategy   guidance.Strategy
	detector   *spamdetect.Detector
	// scoringAggregator and scoringDetector are the instances handed to the
	// guidance step. When parallel candidate scoring is enabled they are
	// serial variants: scoring already fans out across MaxParallelism
	// goroutines, and nesting GOMAXPROCS-wide EM/detection shards inside
	// each scorer would oversubscribe the CPU.
	scoringAggregator aggregation.Aggregator
	scoringDetector   *spamdetect.Detector
	quarantine        *spamdetect.Quarantine
	hybrid            *guidance.Hybrid
	workerDriven      bool // strategy is the pure worker-driven one
	// lastWorkerDriven records whether the most recent SelectNext call used
	// the worker-driven branch.
	lastWorkerDriven bool

	// selMu guards the mutable selection state — the hybrid roulette draw
	// (and any other strategy-owned pseudo-random state), lastWorkerDriven
	// and the lazily built scoreIndex — so selections may run concurrently
	// with each other and with read-only state access (a serving tier calls
	// SelectNext under its read lock). The expensive candidate scoring runs
	// outside the lock; only the draw and the index build are serialized.
	// Selections must still not run concurrently with mutations (Integrate,
	// AddAnswers, ...): that exclusion is the caller's, e.g. a single-writer
	// RWMutex in the serving tier.
	selMu sync.Mutex
	// scoreIndex is the per-aggregation guidance scoring index (per-object
	// entropies, hypothetical-scoring tables), built lazily on the first
	// selection after an aggregation. With the delta path enabled it is a
	// maintained view: when the probabilistic state moves it is kept and
	// patched in place onto the successor result (ScoreIndex.Rebase) at the
	// next selection — one patch per coalesced batch, cost proportional to
	// what changed — instead of being rebuilt from scratch. Full invalidation
	// remains the fallback for full-path aggregations, quarantine changes and
	// growth (see invalidateIndex), and for sessions without the delta path.
	scoreIndex *aggregation.ScoreIndex
	// invalidateIndex marks the maintained scoreIndex as not patchable onto
	// the next state: set by the mutation paths on full-path aggregations and
	// quarantine changes, consumed by refreshScoreIndex. Mutations are
	// exclusive (the caller's single-writer contract), so the flag itself
	// needs no extra lock.
	invalidateIndex bool
	// rankCache memoizes the most recent ranking per stateless scoring
	// strategy, keyed by strategy instance, so repeated SelectNextK calls on
	// an unchanged state are served in O(k) from the maintained view instead
	// of re-scoring every candidate. Guarded by selMu; dropped whenever the
	// probabilistic state moves.
	rankCache map[guidance.Strategy]cachedRanking
	// scoreIndexBuilds and scoreIndexPatches count from-scratch index builds
	// and successful in-place patches (selMu). Serving-tier statistics like
	// emIterations, not snapshot state.
	scoreIndexBuilds  int
	scoreIndexPatches int

	iteration   int
	effortSpent int
	history     []IterationRecord
	// emIterations accumulates the EM iterations of every aggregation this
	// engine ran (initial, per-validation, batch, ingestion, revision). It is
	// a serving-tier statistic, not part of the snapshot state: a restored
	// engine starts counting from zero again.
	emIterations int
	// deltaIterations accumulates the frontier-restricted iterations of the
	// delta-incremental path; like emIterations it is a statistic, not
	// snapshot state. A session that never used the delta path reports zero.
	deltaIterations int

	// confirmedValidations records, per object, the label the expert has
	// explicitly re-confirmed after the confirmation check flagged it. Such
	// validations are not re-elicited again unless they change.
	confirmedValidations map[int]model.Label
}

// NewEngine prepares a validation engine for the given answer set and runs
// the initial aggregation (iteration 0).
func NewEngine(answers *model.AnswerSet, cfg Config) (*Engine, error) {
	return NewEngineContext(context.Background(), answers, cfg)
}

// NewEngineContext is NewEngine with cancellation of the initial aggregation.
func NewEngineContext(ctx context.Context, answers *model.AnswerSet, cfg Config) (*Engine, error) {
	e, err := newEngineShell(answers, cfg)
	if err != nil {
		return nil, err
	}
	res, err := aggregation.Do(ctx, e.aggregator, e.working, e.validation, nil)
	if err != nil {
		return nil, fmt.Errorf("core: initial aggregation: %w", err)
	}
	e.setProbSet(res.ProbSet)
	e.emIterations += res.Iterations
	return e, nil
}

// rankCacheWidth is how many candidates a cacheable selection ranks beyond
// the caller's k, so subsequent selections on the same state with any k up to
// the width are served from the memoized ranking.
const rankCacheWidth = 64

// cachedRanking memoizes one strategy's ranking of the current probabilistic
// state. The slice is never handed out directly — lookups and stores copy —
// so callers may retain or truncate returned rankings freely.
type cachedRanking struct {
	ranked []guidance.ScoredObject
	// exhaustive records that ranked holds every candidate the strategy had,
	// so requests for more than len(ranked) are still cache hits.
	exhaustive bool
}

// setProbSet installs a new probabilistic state: it re-instantiates the
// deterministic assignment and reconciles the maintained selection state
// (scoring index, memoized rankings) with the move. Installing the state the
// engine already holds — a no-op settle — is free and keeps every cache
// valid.
func (e *Engine) setProbSet(p *model.ProbabilisticAnswerSet) {
	if p == e.probSet {
		return
	}
	e.probSet = p
	e.assignment = p.Instantiate()
	e.refreshScoreIndex()
}

// refreshScoreIndex reconciles the maintained selection state with a new
// probabilistic answer set, under the selection lock so in-flight selections
// on other goroutines never observe a half-moved view. Memoized rankings
// always describe exactly one state and are dropped. The scoring index is
// kept for an in-place Rebase at the next selection (the maintained-view
// path) unless a mutation flagged the move as non-patchable — full-path
// aggregation, quarantine change — or the session runs without the delta
// path or with the caches disabled, in which case it is dropped for a
// from-scratch rebuild.
func (e *Engine) refreshScoreIndex() {
	e.selMu.Lock()
	defer e.selMu.Unlock()
	clear(e.rankCache)
	drop := e.invalidateIndex
	e.invalidateIndex = false
	if e.scoreIndex != nil && (drop || !e.cfg.Delta.Enabled || e.cfg.DisableSelectionCache) {
		e.scoreIndex = nil
	}
}

// newEngineShell wires up an engine — components, quarantine, bookkeeping —
// without running the initial aggregation. NewEngine aggregates afterwards;
// RestoreEngine installs a snapshotted probabilistic state instead.
func newEngineShell(answers *model.AnswerSet, cfg Config) (*Engine, error) {
	if answers == nil {
		return nil, fmt.Errorf("core: %w", cverr.ErrNilAnswerSet)
	}
	e := &Engine{
		cfg:      cfg,
		original: answers,
		working:  answers.Clone(),
	}
	e.validation = model.NewValidation(answers.NumObjects())
	e.aggregator = cfg.Aggregator
	if e.aggregator == nil {
		e.aggregator = &aggregation.IncrementalEM{
			Config: aggregation.EMConfig{Parallelism: cfg.MaxParallelism},
			Delta:  cfg.Delta,
		}
	}
	if cfg.Delta.Enabled {
		// The working answer set records the dirty frontier; every mutation
		// path (ingest, quarantine, growth) flows through it, and explicit
		// validation changes are marked at their call sites.
		e.working.TrackDirty()
	}
	e.detector = cfg.Detector
	if e.detector == nil {
		e.detector = &spamdetect.Detector{Parallelism: cfg.MaxParallelism}
	}
	e.scoringAggregator = e.aggregator
	e.scoringDetector = e.detector
	if cfg.Parallel {
		if s, ok := e.aggregator.(aggregation.Sharded); ok {
			e.scoringAggregator = s.SerialVariant()
		}
		serialDetector := *e.detector
		serialDetector.Parallelism = 1
		e.scoringDetector = &serialDetector
	}
	e.strategy = cfg.Strategy
	if e.strategy == nil {
		rng := cfg.Rand
		if rng == nil {
			rng = rand.New(rand.NewSource(1))
		}
		e.strategy = &guidance.Hybrid{Rand: rng}
		e.cfg.HandleFaultyWorkers = true
	}
	if h, ok := e.strategy.(*guidance.Hybrid); ok {
		e.hybrid = h
		e.cfg.HandleFaultyWorkers = true
		// Give the hybrid stable branch instances: ChooseBranch otherwise
		// mints a fresh strategy value per draw, which would defeat the
		// per-strategy ranking memoization (and grow its map per selection).
		if h.Worker == nil {
			h.Worker = &guidance.WorkerDriven{}
		}
		if h.Uncertainty == nil {
			h.Uncertainty = &guidance.UncertaintyDriven{}
		}
	}
	if _, ok := e.strategy.(*guidance.WorkerDriven); ok {
		e.workerDriven = true
	}
	e.quarantine = spamdetect.NewQuarantine()
	e.confirmedValidations = make(map[int]model.Label)
	e.rankCache = make(map[guidance.Strategy]cachedRanking)
	return e, nil
}

// RestoredState is the dynamic part of an engine captured by a session
// snapshot: everything NewEngine cannot rebuild from the answer set and the
// configuration alone.
type RestoredState struct {
	// Validation holds the expert validations collected so far.
	Validation *model.Validation
	// Quarantined lists the workers whose answers were masked at snapshot
	// time; their answers are re-masked out of the working answer set.
	Quarantined []int
	// Assignment and Confusions are the probabilistic state of the last
	// aggregation, restored bit-for-bit.
	Assignment *model.AssignmentMatrix
	Confusions []*model.ConfusionMatrix
	// Iteration and EffortSpent restore the bookkeeping counters.
	Iteration   int
	EffortSpent int
	// LastWorkerDriven restores whether the most recent selection used the
	// worker-driven branch (relevant when a snapshot was taken between
	// SelectNext and Integrate).
	LastWorkerDriven bool
	// ConfirmedValidations restores the labels the expert re-confirmed after
	// the confirmation check flagged them.
	ConfirmedValidations map[int]model.Label
	// History restores the per-iteration records.
	History []IterationRecord
}

// RestoreEngine rebuilds an engine from a snapshot: the original answer set,
// the dynamic state, and a configuration equivalent to the one the engine was
// created with. No aggregation runs — the restored probabilistic state is
// installed as-is, so a resumed engine continues bit-for-bit where the
// snapshotted one stopped.
func RestoreEngine(answers *model.AnswerSet, st *RestoredState, cfg Config) (*Engine, error) {
	if answers == nil {
		return nil, fmt.Errorf("core: %w", cverr.ErrNilAnswerSet)
	}
	if st == nil || st.Validation == nil || st.Assignment == nil {
		return nil, fmt.Errorf("core: %w: missing restored state", cverr.ErrBadSnapshot)
	}
	if st.Validation.NumObjects() != answers.NumObjects() ||
		st.Assignment.NumObjects() != answers.NumObjects() ||
		st.Assignment.NumLabels() != answers.NumLabels() ||
		len(st.Confusions) != answers.NumWorkers() {
		return nil, fmt.Errorf("core: %w: restored state does not match the answer set dimensions",
			cverr.ErrBadSnapshot)
	}
	e, err := newEngineShell(answers, cfg)
	if err != nil {
		return nil, err
	}
	e.validation = st.Validation.Clone()
	for _, w := range st.Quarantined {
		if w < 0 || w >= answers.NumWorkers() {
			return nil, fmt.Errorf("core: %w: quarantined worker %d out of range", cverr.ErrBadSnapshot, w)
		}
		e.quarantine.Mask(e.working, w)
	}
	confusions := make([]*model.ConfusionMatrix, len(st.Confusions))
	for w, c := range st.Confusions {
		if c == nil {
			return nil, fmt.Errorf("core: %w: missing confusion matrix for worker %d", cverr.ErrBadSnapshot, w)
		}
		confusions[w] = c.Clone()
	}
	e.setProbSet(&model.ProbabilisticAnswerSet{
		Answers:    e.working,
		Validation: e.validation.Clone(),
		Assignment: st.Assignment.Clone(),
		Confusions: confusions,
	})
	// Reconstructing the quarantine masks marked the frontier dirty, but the
	// restored probabilistic state already is the fixed point over exactly
	// this working set; the next aggregation starts from a clean frontier.
	e.working.ClearDirty()
	e.iteration = st.Iteration
	e.effortSpent = st.EffortSpent
	e.lastWorkerDriven = st.LastWorkerDriven
	for o, l := range st.ConfirmedValidations {
		e.confirmedValidations[o] = l
	}
	e.history = append(e.history, st.History...)
	return e, nil
}

// OriginalAnswers returns the pristine answer set the engine was built over
// (including any answers added later through AddAnswers, but never masked by
// the quarantine). Callers must not mutate it; session snapshots serialize it
// together with the quarantined worker list to reconstruct the working set.
func (e *Engine) OriginalAnswers() *model.AnswerSet { return e.original }

// ConfirmedValidations returns a copy of the validations the expert
// explicitly re-confirmed after the confirmation check flagged them.
func (e *Engine) ConfirmedValidations() map[int]model.Label {
	out := make(map[int]model.Label, len(e.confirmedValidations))
	for o, l := range e.confirmedValidations {
		out[o] = l
	}
	return out
}

// LastWorkerDriven reports whether the most recent SelectNext call used the
// worker-driven branch.
func (e *Engine) LastWorkerDriven() bool { return e.lastWorkerDriven }

// budget returns the effective effort budget.
func (e *Engine) budget() int {
	if e.cfg.Budget > 0 {
		return e.cfg.Budget
	}
	return e.original.NumObjects()
}

// Iteration returns the number of completed validation steps.
func (e *Engine) Iteration() int { return e.iteration }

// EffortSpent returns the total number of expert interactions, including
// revisions triggered by the confirmation check.
func (e *Engine) EffortSpent() int { return e.effortSpent }

// EffortRatio returns the spent effort relative to the number of objects.
func (e *Engine) EffortRatio() float64 {
	return float64(e.effortSpent) / float64(e.original.NumObjects())
}

// Validation returns the current expert validation function.
func (e *Engine) Validation() *model.Validation { return e.validation }

// ProbSet returns the current probabilistic answer set.
func (e *Engine) ProbSet() *model.ProbabilisticAnswerSet { return e.probSet }

// Assignment returns the current deterministic assignment.
func (e *Engine) Assignment() model.DeterministicAssignment { return e.assignment.Clone() }

// Uncertainty returns H(P) of the current probabilistic answer set.
func (e *Engine) Uncertainty() float64 { return aggregation.Uncertainty(e.probSet) }

// History returns the per-iteration records collected so far.
func (e *Engine) History() []IterationRecord { return e.history }

// TotalEMIterations returns the cumulative number of EM iterations of every
// aggregation this engine instance ran (initial aggregation, per-validation
// and batch integrations, ingestions, revisions). It is a resource-usage
// statistic for serving tiers; it is not serialized, so a restored engine
// counts from zero.
func (e *Engine) TotalEMIterations() int { return e.emIterations }

// TotalDeltaIterations returns the cumulative number of frontier-restricted
// iterations the delta-incremental aggregation path ran. Zero when the delta
// path is disabled or never kicked in; like TotalEMIterations it is a
// statistic, not snapshot state.
func (e *Engine) TotalDeltaIterations() int { return e.deltaIterations }

// ScoreIndexStats returns how many times the guidance scoring index was
// built from scratch and how many times it was patched in place onto a
// successor aggregation result (ScoreIndex.Rebase). Like TotalEMIterations
// they are serving-tier statistics, not snapshot state: a restored engine
// counts from zero.
func (e *Engine) ScoreIndexStats() (builds, patches int) {
	e.selMu.Lock()
	defer e.selMu.Unlock()
	return e.scoreIndexBuilds, e.scoreIndexPatches
}

// QuarantinedWorkers returns the indices of currently quarantined workers.
func (e *Engine) QuarantinedWorkers() []int { return e.quarantine.MaskedWorkers() }

// Done reports whether the process should stop: goal reached, budget
// exhausted or no unvalidated object left.
func (e *Engine) Done() bool {
	if e.cfg.Goal != nil && e.cfg.Goal(e) {
		return true
	}
	if e.effortSpent >= e.budget() {
		return true
	}
	return len(e.validation.UnvalidatedObjects()) == 0
}

// guidanceContext assembles the strategy context for the current state.
func (e *Engine) guidanceContext(ctx context.Context) *guidance.Context {
	return &guidance.Context{
		Ctx:            ctx,
		Answers:        e.working,
		ProbSet:        e.probSet,
		Aggregator:     e.scoringAggregator,
		Detector:       e.scoringDetector,
		Parallel:       e.cfg.Parallel,
		MaxParallelism: e.cfg.MaxParallelism,
		DeltaScore:     e.cfg.DeltaScoring,
		// The blocked (fused ripple walk) hypothetical scorer is
		// bit-identical to the scalar one and strictly faster, so it is the
		// default whenever delta scoring is on.
		BlockedRows: e.cfg.DeltaScoring,
	}
}

// ensureScoreIndex returns the guidance scoring index for the current
// probabilistic state. Callers hold selMu. An index retained across a delta
// aggregation is patched onto the current state in place
// (ScoreIndex.Rebase), touching only entries whose rows actually moved; a
// failed patch (growth, snapshot resume, shape change) and a missing index
// fall back to the from-scratch build. For delta scoring the hypothetical
// tables and the CSR adjacency copy the blocked scorer reads are (re)filled
// as part of the same step, under selMu and before scoring fans out, so
// concurrent scorers only ever read them.
func (e *Engine) ensureScoreIndex() *aggregation.ScoreIndex {
	if ix := e.scoreIndex; ix != nil && ix.ProbSet() != e.probSet {
		if ix.Rebase(e.working, e.probSet) {
			e.scoreIndexPatches++
		} else {
			e.scoreIndex = nil
		}
	}
	if e.scoreIndex == nil {
		ix := aggregation.NewScoreIndex(e.working, e.probSet, aggregation.EMConfigOf(e.scoringAggregator))
		if e.cfg.DeltaScoring {
			ix.EnsureHypoTables()
		}
		e.scoreIndex = ix
		e.scoreIndexBuilds++
	}
	return e.scoreIndex
}

// WithSelectionLock runs fn while holding the selection mutex. Snapshotters
// use it to read the strategy state (pseudo-random stream, hybrid weight,
// last branch) consistently while selections may be in flight on other
// goroutines; fn must not call back into selection.
func (e *Engine) WithSelectionLock(fn func()) {
	e.selMu.Lock()
	defer e.selMu.Unlock()
	fn()
}

// aggregate runs the conclude step over the current evidence. With the delta
// path enabled and a delta-capable aggregator, it hands the dirty frontier
// accumulated since the last successful aggregation to the aggregator and
// clears it on success; a failed or cancelled aggregation keeps the frontier,
// so the next call folds the same mutations in. Without the delta path it is
// aggregation.Do with the same clearing discipline (a full sweep covers every
// mutation by construction).
func (e *Engine) aggregate(ctx context.Context) (*aggregation.Result, error) {
	if e.cfg.Delta.Enabled && e.working.DirtyTracking() {
		if da, ok := e.aggregator.(aggregation.DeltaAggregator); ok {
			delta := &aggregation.Delta{Objects: e.working.DirtyObjects(), Workers: e.working.DirtyWorkers()}
			if len(delta.Objects) == 0 && len(delta.Workers) == 0 && e.probSet != nil {
				// No-op settle: nothing dirtied the state since the previous
				// fixed point (e.g. an ingest whose answers were all stashed
				// with the quarantine), so that fixed point still holds.
				// Returning it as-is also keeps the maintained index and
				// memoized rankings valid — setProbSet sees the same pointer
				// — instead of forcing a pointless rebuild.
				return &aggregation.Result{ProbSet: e.probSet, Converged: true}, nil
			}
			res, err := da.AggregateDeltaContext(ctx, e.working, e.validation, e.probSet, delta)
			if err != nil {
				return nil, err
			}
			e.working.ClearDirty()
			e.deltaIterations += res.DeltaIterations
			if res.DeltaIterations == 0 {
				// The aggregator fell back to the full path (cold state or
				// oversized frontier): every row may have moved, so patching
				// the index would cost as much as rebuilding it.
				e.invalidateIndex = true
			}
			return res, nil
		}
	}
	res, err := aggregation.Do(ctx, e.aggregator, e.working, e.validation, e.probSet)
	if err != nil {
		return nil, err
	}
	e.working.ClearDirty()
	e.invalidateIndex = true
	return res, nil
}

// SelectNext runs the guidance strategy and returns the object the expert
// should validate next (step (1) of Algorithm 1). It does not modify the
// validation state; callers elicit the expert input themselves and feed it
// back through Integrate. Interactive applications use SelectNext/Integrate
// directly; batch runs use Step or Run, which combine them with an Expert.
func (e *Engine) SelectNext() (int, error) {
	return e.SelectNextContext(context.Background())
}

// SelectNextContext is SelectNext with cancellation of the candidate scoring.
// It fails with ErrSessionDone when every object is validated or the goal is
// reached, and with ErrBudgetExhausted when the effort budget is spent.
func (e *Engine) SelectNextContext(ctx context.Context) (int, error) {
	ranked, err := e.selectRanked(ctx, 1)
	if err != nil {
		return -1, err
	}
	return ranked[0].Object, nil
}

// SelectNextK returns the top k candidate objects for the next expert
// validation, ranked by the strategy's score (see SelectNextKContext).
func (e *Engine) SelectNextK(k int) ([]guidance.ScoredObject, error) {
	return e.SelectNextKContext(context.Background(), k)
}

// SelectNextKContext is the batched form of SelectNextContext: one scoring
// pass ranks the top k candidates (fewer when fewer remain unvalidated),
// ordered by score descending with ties broken toward the smaller object
// index. SelectNextKContext(ctx, 1) selects exactly the object
// SelectNextContext would, and consumes the same pseudo-random state (one
// hybrid roulette draw per call), so mixed single/batched selections keep
// snapshots and resumed sessions aligned. The effort preconditions are those
// of SelectNextContext — the budget bounds validations, not suggestions, so a
// ranking may be longer than the remaining budget.
func (e *Engine) SelectNextKContext(ctx context.Context, k int) ([]guidance.ScoredObject, error) {
	if k < 1 {
		return nil, fmt.Errorf("%w: k = %d (must be at least 1)", cverr.ErrOutOfRange, k)
	}
	return e.selectRanked(ctx, k)
}

// selectRanked is the shared selection path: preconditions and the stateful
// strategy-branch decision run under the selection lock, the expensive
// read-only candidate scoring outside it, so a serving tier can run
// selections under its read lock concurrently with other selections and
// views.
func (e *Engine) selectRanked(ctx context.Context, k int) ([]guidance.ScoredObject, error) {
	sel, err := e.beginSelection(ctx, k)
	if err != nil {
		return nil, err
	}
	defer sel.release()
	if sel.cached != nil {
		return sel.cached, nil
	}
	want := k
	if sel.cacheable && want < rankCacheWidth {
		// Rank a wider prefix than asked so subsequent selections on the
		// same state are served from the memoized ranking. The comparator is
		// a strict total order (score descending, object ascending), so the
		// first k entries of the wider ranking are exactly the k-ranking.
		want = rankCacheWidth
	}
	var ranked []guidance.ScoredObject
	if ks, ok := sel.exec.(guidance.KSelector); ok {
		ranked, err = ks.SelectK(sel.gctx, want)
	} else {
		// A caller-supplied strategy without batched selection still serves
		// k = 1 semantics: the single selected object, unranked.
		var object int
		object, err = sel.exec.Select(sel.gctx)
		if err == nil {
			ranked = []guidance.ScoredObject{{Object: object}}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("core: selection failed: %w", err)
	}
	if len(ranked) == 0 {
		// Defensive: a caller-supplied KSelector may legitimately return an
		// empty ranking when its own filtering leaves no candidate.
		return nil, fmt.Errorf("core: selection failed: %w", cverr.ErrNoCandidates)
	}
	if sel.cacheable {
		e.storeRanking(sel.exec, sel.gctx, ranked, want)
	}
	if len(ranked) > k {
		ranked = ranked[:k]
	}
	return ranked, nil
}

// selection carries one selection's execution state out of beginSelection.
type selection struct {
	exec    guidance.Strategy
	gctx    *guidance.Context
	release func()
	// cached, when non-nil, is the ranking served straight from the
	// per-strategy memoization — the maintained-view fast path; exec and
	// gctx are unset and no scoring runs.
	cached []guidance.ScoredObject
	// cacheable marks exec as a stateless scoring strategy whose ranking of
	// the current state may be memoized.
	cacheable bool
}

// cachedRanking returns a copy of the memoized ranking prefix for exec if it
// can serve k candidates of the current state. Callers hold selMu.
func (e *Engine) cachedRanking(exec guidance.Strategy, k int) ([]guidance.ScoredObject, bool) {
	entry, ok := e.rankCache[exec]
	if !ok || len(entry.ranked) == 0 {
		return nil, false
	}
	if len(entry.ranked) < k && !entry.exhaustive {
		return nil, false
	}
	n := k
	if len(entry.ranked) < n {
		n = len(entry.ranked)
	}
	out := make([]guidance.ScoredObject, n)
	copy(out, entry.ranked[:n])
	return out, true
}

// storeRanking memoizes a freshly computed ranking for exec. It runs outside
// the selection lock (after the unlocked scoring), so it re-takes the lock
// and drops the store if the probabilistic state moved since the scoring
// started — a stale ranking must never be memoized against a newer state.
// want is how many candidates the scoring asked for: a shorter result means
// the strategy ran out of candidates, making the ranking exhaustive.
func (e *Engine) storeRanking(exec guidance.Strategy, gctx *guidance.Context, ranked []guidance.ScoredObject, want int) {
	entry := cachedRanking{
		ranked:     append([]guidance.ScoredObject(nil), ranked...),
		exhaustive: len(ranked) < want,
	}
	e.selMu.Lock()
	defer e.selMu.Unlock()
	if gctx.ProbSet != e.probSet {
		return
	}
	if len(e.rankCache) >= 8 {
		// Defensive bound for caller-supplied strategies that are not
		// pointer-stable across selections; the engine's own strategies are
		// at most a handful of stable instances.
		clear(e.rankCache)
	}
	e.rankCache[exec] = entry
}

// beginSelection performs the serialized prologue of one selection under the
// selection lock: the effort/goal preconditions, the stateful strategy-branch
// decision (hybrid roulette draw, lastWorkerDriven bookkeeping), the
// memoized-ranking lookup and the scoring-index build-or-patch. The hybrid
// draw is consumed before the cache lookup, so cache hits and misses consume
// identical pseudo-random state and snapshots stay aligned either way. For
// the stateless scoring strategies it releases the lock before returning, so
// the expensive scoring runs unlocked; stateful or unknown strategies
// (Random, custom implementations) keep the lock for the whole selection and
// the returned release function drops it afterwards.
func (e *Engine) beginSelection(ctx context.Context, k int) (*selection, error) {
	e.selMu.Lock()
	if e.cfg.Goal != nil && e.cfg.Goal(e) {
		e.selMu.Unlock()
		return nil, fmt.Errorf("core: goal reached: %w", cverr.ErrSessionDone)
	}
	// Count instead of materializing UnvalidatedObjects: the precondition
	// runs under the lock on every selection, and allocating an index slice
	// per request is measurable at serving rates.
	if e.validation.Count() == e.validation.NumObjects() {
		e.selMu.Unlock()
		return nil, fmt.Errorf("core: all objects are already validated: %w", cverr.ErrSessionDone)
	}
	if e.effortSpent >= e.budget() {
		e.selMu.Unlock()
		return nil, fmt.Errorf("core: %w: spent %d of %d", cverr.ErrBudgetExhausted, e.effortSpent, e.budget())
	}
	// Bail before the strategy runs: an already-cancelled context must not
	// consume state (in particular not the hybrid roulette draw), so retrying
	// after cancellation stays deterministic.
	if err := ctx.Err(); err != nil {
		e.selMu.Unlock()
		return nil, err
	}
	exec := e.strategy
	if e.hybrid != nil {
		exec = e.hybrid.ChooseBranch()
		e.lastWorkerDriven = e.hybrid.LastChoiceWorkerDriven()
	} else {
		e.lastWorkerDriven = e.workerDriven
	}
	sel := &selection{exec: exec, release: func() {}}
	switch exec.(type) {
	case *guidance.UncertaintyDriven, *guidance.WorkerDriven, *guidance.Baseline:
		// Stateless scorers: serve from the memoized ranking when the state
		// has not moved, otherwise share the per-aggregation index and score
		// outside the lock.
		sel.cacheable = !e.cfg.DisableSelectionCache
		if sel.cacheable {
			if hit, ok := e.cachedRanking(exec, k); ok {
				e.selMu.Unlock()
				sel.cached = hit
				return sel, nil
			}
		}
		sel.gctx = e.guidanceContext(ctx)
		sel.gctx.Index = e.ensureScoreIndex()
		e.selMu.Unlock()
		return sel, nil
	default:
		sel.gctx = e.guidanceContext(ctx)
		sel.release = e.selMu.Unlock
		return sel, nil
	}
}

// Integrate records the expert's validation of an object and performs the
// remaining steps of one iteration of Algorithm 1: faulty-worker detection
// and quarantining, hybrid-weight update, confirmation check (without
// automatic re-elicitation — suspects are reported in the record), and the
// conclude/filter steps that refresh the probabilistic answer set and the
// deterministic assignment.
func (e *Engine) Integrate(object int, label model.Label) (IterationRecord, error) {
	return e.IntegrateContext(context.Background(), object, label)
}

// IntegrateContext is Integrate with cancellation. All mutations are rolled
// back when the detection, confirmation check or aggregation fails or is
// cancelled, so a context.Canceled return leaves the engine exactly as it was
// before the call and the validation can be resubmitted.
func (e *Engine) IntegrateContext(ctx context.Context, object int, label model.Label) (IterationRecord, error) {
	if object < 0 || object >= e.original.NumObjects() {
		return IterationRecord{}, fmt.Errorf("%w: object %d (session has %d objects)",
			cverr.ErrOutOfRange, object, e.original.NumObjects())
	}
	if !label.Valid(e.original.NumLabels()) {
		return IterationRecord{}, fmt.Errorf("%w: label %d for object %d (task has %d labels)",
			cverr.ErrInvalidLabel, label, object, e.original.NumLabels())
	}
	if e.validation.Validated(object) {
		return IterationRecord{}, fmt.Errorf("%w: object %d (use ReviseValidation to change it)",
			cverr.ErrAlreadyValidated, object)
	}
	if e.effortSpent >= e.budget() {
		return IterationRecord{}, fmt.Errorf("core: %w: spent %d of %d",
			cverr.ErrBudgetExhausted, e.effortSpent, e.budget())
	}
	record := IterationRecord{
		Iteration:        e.iteration + 1,
		Object:           object,
		Label:            label,
		WorkerDrivenUsed: e.lastWorkerDriven,
	}

	// Error rate ε_i = 1 − U_{i-1}(o, l).
	record.ErrorRate = 1 - e.probSet.Assignment.Prob(object, label)

	// (3) Handle spammers. The detection always runs (it feeds r_i); the
	// quarantine is only applied when the worker-driven branch was used and
	// faulty-worker handling is enabled. Until the final aggregation
	// succeeds, every mutation is tracked so a failure restores the
	// pre-call state.
	e.validation.Set(object, label)
	var masked, restored []int
	prevWeight := 0.0
	if e.hybrid != nil {
		prevWeight = e.hybrid.Weight()
	}
	rollback := func() {
		if e.hybrid != nil {
			e.hybrid.SetWeight(prevWeight)
		}
		e.quarantine.Undo(e.working, masked, restored)
		e.validation.Set(object, model.NoLabel)
	}
	detection, err := e.detector.DetectContext(ctx, e.working, e.validation, e.probSet.Assignment.Priors())
	if err != nil {
		rollback()
		return IterationRecord{}, fmt.Errorf("core: spammer detection: %w", err)
	}
	record.FaultyWorkers = len(detection.FaultyWorkers())
	if e.cfg.HandleFaultyWorkers && record.WorkerDrivenUsed {
		masked, restored = e.quarantine.Apply(e.working, detection)
		record.MaskedWorkers = masked
		record.RestoredWorkers = restored
		if len(masked)+len(restored) > 0 {
			// Quarantine changes rewrite whole workers' answer sets; the
			// maintained scoring index is rebuilt rather than patched.
			e.invalidateIndex = true
		}
	}
	if e.hybrid != nil {
		record.HybridWeight = e.hybrid.UpdateWeight(record.ErrorRate, detection.FaultyRatio(), e.validation.Ratio())
	}

	// (3b) Confirmation check for erroneous expert input. The suspects are
	// reported in the record; revision happens in Step (batch mode) or is
	// left to the caller (interactive mode) via ReviseValidation.
	// Validations the expert already re-confirmed are not flagged again —
	// without this, a correct validation that merely disagrees with a noisy
	// crowd would be re-elicited on every check.
	if e.cfg.Confirmation != nil && record.Iteration%e.cfg.Confirmation.EffectivePeriod() == 0 {
		suspects, err := e.cfg.Confirmation.CheckContext(ctx, e.working, e.validation)
		if err != nil {
			rollback()
			return IterationRecord{}, fmt.Errorf("core: confirmation check: %w", err)
		}
		for _, s := range suspects {
			if confirmed, ok := e.confirmedValidations[s.Object]; ok && confirmed == e.validation.Get(s.Object) {
				continue
			}
			record.ConfirmationSuspects = append(record.ConfirmationSuspects, s)
		}
	}

	// (4) Integrate the validation: re-aggregate and re-instantiate.
	e.working.MarkObjectDirty(object)
	res, err := e.aggregate(ctx)
	if err != nil {
		rollback()
		return IterationRecord{}, fmt.Errorf("core: aggregation: %w", err)
	}
	e.setProbSet(res.ProbSet)
	e.emIterations += res.Iterations
	record.EMIterations = res.Iterations
	record.Uncertainty = aggregation.Uncertainty(e.probSet)

	e.effortSpent++
	e.iteration++
	e.history = append(e.history, record)
	return record, nil
}

// ReviseValidation replaces an earlier expert validation (typically after the
// confirmation check flagged it) and re-aggregates. The revision counts as
// one additional unit of expert effort. The revised object is appended to the
// latest history record.
func (e *Engine) ReviseValidation(object int, label model.Label) error {
	return e.ReviseValidationContext(context.Background(), object, label)
}

// ReviseValidationContext is ReviseValidation with cancellation; a cancelled
// aggregation restores the previous validation and leaves the engine state
// untouched.
func (e *Engine) ReviseValidationContext(ctx context.Context, object int, label model.Label) error {
	if !e.validation.Validated(object) {
		return fmt.Errorf("%w: object %d has no validation to revise", cverr.ErrNotValidated, object)
	}
	if !label.Valid(e.original.NumLabels()) {
		return fmt.Errorf("%w: label %d for object %d (task has %d labels)",
			cverr.ErrInvalidLabel, label, object, e.original.NumLabels())
	}
	prev := e.validation.Get(object)
	e.validation.Set(object, label)
	e.working.MarkObjectDirty(object)
	res, err := e.aggregate(ctx)
	if err != nil {
		e.validation.Set(object, prev)
		return fmt.Errorf("core: aggregation: %w", err)
	}
	e.effortSpent++
	e.confirmedValidations[object] = label
	e.setProbSet(res.ProbSet)
	e.emIterations += res.Iterations
	if len(e.history) > 0 {
		last := &e.history[len(e.history)-1]
		last.RevisedObjects = append(last.RevisedObjects, object)
	}
	return nil
}

// ValidationInput is one element of a validation batch: the expert asserts
// that label is the correct answer for object.
type ValidationInput struct {
	Object int
	Label  model.Label
}

// IntegrateBatch records a whole batch of expert validations and runs the
// expensive steps of Algorithm 1 — faulty-worker detection and the i-EM
// re-aggregation — once for the entire batch instead of once per validation.
// It is the integration path for batch expert UIs, where a validator submits
// a page of answers at a time.
//
// Semantics relative to len(inputs) sequential Integrate calls: every
// validation is recorded, effort grows by len(inputs), and per-input error
// rates are measured against the probabilistic answer set from before the
// batch. The detection runs once after all validations are applied, the
// hybrid weight is updated once with the batch-mean error rate, no quarantine
// reconciliation happens (batch input is expert-pushed, not selected by the
// worker-driven branch), and the confirmation check runs at most once when
// the batch crosses a period boundary. The final probabilistic answer set is
// the i-EM fixed point over the same evidence a sequential session would
// hold, so results agree up to EM convergence tolerance.
//
// The batch is transactional: it fails as a whole (duplicate or already
// validated objects, budget overflow, cancelled context) and a failure rolls
// every mutation back.
func (e *Engine) IntegrateBatch(ctx context.Context, inputs []ValidationInput) ([]IterationRecord, error) {
	if len(inputs) == 0 {
		return nil, nil
	}
	seen := make(map[int]bool, len(inputs))
	for _, in := range inputs {
		if in.Object < 0 || in.Object >= e.original.NumObjects() {
			return nil, fmt.Errorf("%w: object %d (session has %d objects)",
				cverr.ErrOutOfRange, in.Object, e.original.NumObjects())
		}
		if !in.Label.Valid(e.original.NumLabels()) {
			return nil, fmt.Errorf("%w: label %d for object %d (task has %d labels)",
				cverr.ErrInvalidLabel, in.Label, in.Object, e.original.NumLabels())
		}
		if e.validation.Validated(in.Object) || seen[in.Object] {
			return nil, fmt.Errorf("%w: object %d (use ReviseValidation to change it)",
				cverr.ErrAlreadyValidated, in.Object)
		}
		seen[in.Object] = true
	}
	if e.effortSpent+len(inputs) > e.budget() {
		return nil, fmt.Errorf("core: %w: batch of %d exceeds budget %d with %d spent",
			cverr.ErrBudgetExhausted, len(inputs), e.budget(), e.effortSpent)
	}

	records := make([]IterationRecord, len(inputs))
	meanError := 0.0
	for i, in := range inputs {
		records[i] = IterationRecord{
			Iteration: e.iteration + i + 1,
			Object:    in.Object,
			Label:     in.Label,
			ErrorRate: 1 - e.probSet.Assignment.Prob(in.Object, in.Label),
		}
		meanError += records[i].ErrorRate
		e.validation.Set(in.Object, in.Label)
		e.working.MarkObjectDirty(in.Object)
	}
	meanError /= float64(len(inputs))
	prevWeight := 0.0
	if e.hybrid != nil {
		prevWeight = e.hybrid.Weight()
	}
	rollback := func() {
		if e.hybrid != nil {
			e.hybrid.SetWeight(prevWeight)
		}
		for _, in := range inputs {
			e.validation.Set(in.Object, model.NoLabel)
		}
	}

	detection, err := e.detector.DetectContext(ctx, e.working, e.validation, e.probSet.Assignment.Priors())
	if err != nil {
		rollback()
		return nil, fmt.Errorf("core: spammer detection: %w", err)
	}
	faulty := len(detection.FaultyWorkers())
	if e.hybrid != nil {
		weight := e.hybrid.UpdateWeight(meanError, detection.FaultyRatio(), e.validation.Ratio())
		for i := range records {
			records[i].HybridWeight = weight
		}
	}

	if e.cfg.Confirmation != nil {
		period := e.cfg.Confirmation.EffectivePeriod()
		if (e.iteration+len(inputs))/period > e.iteration/period {
			suspects, err := e.cfg.Confirmation.CheckContext(ctx, e.working, e.validation)
			if err != nil {
				rollback()
				return nil, fmt.Errorf("core: confirmation check: %w", err)
			}
			last := &records[len(records)-1]
			for _, s := range suspects {
				if confirmed, ok := e.confirmedValidations[s.Object]; ok && confirmed == e.validation.Get(s.Object) {
					continue
				}
				last.ConfirmationSuspects = append(last.ConfirmationSuspects, s)
			}
		}
	}

	res, err := e.aggregate(ctx)
	if err != nil {
		rollback()
		return nil, fmt.Errorf("core: aggregation: %w", err)
	}
	e.setProbSet(res.ProbSet)
	e.emIterations += res.Iterations
	uncertainty := aggregation.Uncertainty(e.probSet)
	for i := range records {
		records[i].FaultyWorkers = faulty
		records[i].EMIterations = res.Iterations
		records[i].Uncertainty = uncertainty
	}
	e.iteration += len(inputs)
	e.effortSpent += len(inputs)
	e.history = append(e.history, records...)
	return records, nil
}

// AddAnswers folds newly arrived crowd answers into the running session —
// the pay-as-you-go ingestion path for streaming crowds. Answers may target
// existing objects and workers or previously unseen ones; the sparse model,
// the validation function and the probabilistic state grow on demand
// (AnswerSet.Grow), new objects bootstrap from their vote frequencies, new
// workers from soft-count confusion matrices, and everything is folded in by
// warm-starting the i-EM from the previous probabilistic answer set instead
// of rebuilding the session.
//
// Answers of currently quarantined workers are stashed with the quarantine
// and surface if the worker is later cleared. The label alphabet is fixed;
// labels outside it fail with ErrInvalidLabel before anything is mutated.
// A cancelled context aborts the re-aggregation: the answers remain ingested
// and the probabilistic state stays consistent (grown, warm), so a later
// Integrate or AddAnswers call picks them up.
func (e *Engine) AddAnswers(ctx context.Context, newAnswers []model.Answer) error {
	if len(newAnswers) == 0 {
		return nil
	}
	m := e.original.NumLabels()
	oldN, oldK := e.original.NumObjects(), e.original.NumWorkers()
	newN, newK := oldN, oldK
	for _, ans := range newAnswers {
		if ans.Object < 0 || ans.Worker < 0 {
			return fmt.Errorf("%w: answer for object %d by worker %d", cverr.ErrOutOfRange, ans.Object, ans.Worker)
		}
		if !ans.Label.Valid(m) {
			return fmt.Errorf("%w: label %d for object %d (task has %d labels)",
				cverr.ErrInvalidLabel, ans.Label, ans.Object, m)
		}
		if ans.Object+1 > newN {
			newN = ans.Object + 1
		}
		if ans.Worker+1 > newK {
			newK = ans.Worker + 1
		}
	}
	if newN > oldN || newK > oldK {
		if err := e.original.Grow(newN, newK); err != nil {
			return err
		}
		if err := e.working.Grow(newN, newK); err != nil {
			return err
		}
		if err := e.validation.Grow(newN); err != nil {
			return err
		}
	}

	// Grow the warm-start state to the new dimensions: existing rows and
	// matrices carry over bit-for-bit.
	assignment := e.probSet.Assignment
	if newN > oldN {
		grown := model.NewAssignmentMatrix(newN, m)
		for o := 0; o < oldN; o++ {
			grown.SetRow(o, assignment.RowSlice(o))
		}
		assignment = grown
	}
	confusions := e.probSet.Confusions
	if newK > oldK {
		confusions = append(append([]*model.ConfusionMatrix(nil), confusions...),
			make([]*model.ConfusionMatrix, newK-oldK)...)
	}

	// Ingest. Indices and labels were validated above and the dimensions
	// grown, so the inserts cannot fail.
	for _, ans := range newAnswers {
		if err := e.original.SetAnswer(ans.Object, ans.Worker, ans.Label); err != nil {
			return err
		}
		if !e.quarantine.Stash(ans.Worker, model.ObjectAnswer{Object: ans.Object, Label: ans.Label}) {
			if err := e.working.SetAnswer(ans.Object, ans.Worker, ans.Label); err != nil {
				return err
			}
		}
	}

	// Bootstrap the state of new objects (vote frequencies, mirroring the
	// majority-vote cold start) and new workers (soft-count confusions,
	// mirroring the M-step).
	for o := oldN; o < newN; o++ {
		row := make([]float64, m)
		total := 0
		for _, wa := range e.working.ObjectView(o) {
			row[wa.Label]++
			total++
		}
		if total == 0 {
			for l := range row {
				row[l] = 1 / float64(m)
			}
		} else {
			for l := range row {
				row[l] /= float64(total)
			}
		}
		assignment.SetRow(o, row)
	}
	for w := oldK; w < newK; w++ {
		c := model.NewConfusionMatrix(m)
		for _, oa := range e.working.WorkerView(w) {
			for l := 0; l < m; l++ {
				c.Add(model.Label(l), oa.Label, assignment.Prob(oa.Object, model.Label(l)))
			}
		}
		c.Smooth(aggregation.DefaultSmoothing)
		confusions[w] = c
	}

	// Install the grown warm state before aggregating so the engine stays
	// consistent even if the aggregation below is cancelled. Without growth
	// the current state is already consistent and is kept as-is — installing
	// a fresh wrapper here would churn the maintained selection state even
	// for batches that end up dirtying nothing (e.g. fully stashed ones).
	if newN > oldN || newK > oldK {
		e.setProbSet(&model.ProbabilisticAnswerSet{
			Answers:    e.working,
			Validation: e.validation.Clone(),
			Assignment: assignment,
			Confusions: confusions,
		})
	}

	res, err := e.aggregate(ctx)
	if err != nil {
		return fmt.Errorf("core: aggregation: %w", err)
	}
	e.setProbSet(res.ProbSet)
	e.emIterations += res.Iterations
	return nil
}

// Step executes one full iteration of Algorithm 1 against an Expert: select
// an object, elicit expert input, integrate it, and — when the confirmation
// check flags suspect validations — immediately re-elicit those from the
// expert. It returns the record of the iteration.
func (e *Engine) Step(expert Expert) (IterationRecord, error) {
	return e.StepContext(context.Background(), expert)
}

// StepContext is Step with cancellation of the selection, integration and
// re-elicitation work.
func (e *Engine) StepContext(ctx context.Context, expert Expert) (IterationRecord, error) {
	if expert == nil {
		return IterationRecord{}, fmt.Errorf("core: %w", cverr.ErrNilExpert)
	}
	object, err := e.SelectNextContext(ctx)
	if err != nil {
		return IterationRecord{}, err
	}
	label, err := expert.ValidateObject(object)
	if err != nil {
		return IterationRecord{}, fmt.Errorf("core: expert validation of object %d: %w", object, err)
	}
	if !label.Valid(e.original.NumLabels()) {
		return IterationRecord{}, fmt.Errorf("core: expert returned %w: label %d for object %d",
			cverr.ErrInvalidLabel, label, object)
	}
	record, err := e.IntegrateContext(ctx, object, label)
	if err != nil {
		return IterationRecord{}, err
	}
	for _, s := range record.ConfirmationSuspects {
		revised, err := expert.ValidateObject(s.Object)
		if err != nil {
			return IterationRecord{}, fmt.Errorf("core: revalidation of object %d: %w", s.Object, err)
		}
		if !revised.Valid(e.original.NumLabels()) {
			return IterationRecord{}, fmt.Errorf("core: expert returned %w: label %d for object %d",
				cverr.ErrInvalidLabel, revised, s.Object)
		}
		if err := e.ReviseValidationContext(ctx, s.Object, revised); err != nil {
			return IterationRecord{}, err
		}
		record.RevisedObjects = append(record.RevisedObjects, s.Object)
	}
	if len(e.history) > 0 {
		e.history[len(e.history)-1] = record
	}
	return record, nil
}

// Summary describes a completed validation run.
type Summary struct {
	Iterations  int
	EffortSpent int
	// EffortRatio is EffortSpent divided by the number of objects.
	EffortRatio float64
	// FinalUncertainty is H(P) at the end of the run.
	FinalUncertainty float64
	// GoalReached reports whether the configured goal (if any) was
	// satisfied.
	GoalReached bool
	// Assignment is the final deterministic assignment.
	Assignment model.DeterministicAssignment
	// History holds the per-iteration records.
	History []IterationRecord
}

// Run executes validation steps until the goal is reached, the budget is
// exhausted or every object has been validated. The optional onStep callback
// is invoked after every iteration (e.g. to record precision against a held
// ground truth); returning false from the callback stops the run early.
func (e *Engine) Run(expert Expert, onStep func(IterationRecord) bool) (*Summary, error) {
	return e.RunContext(context.Background(), expert, onStep)
}

// RunContext is Run with cancellation: the loop stops with ctx.Err() between
// iterations and the iteration in flight rolls back cleanly, so a cancelled
// run leaves the engine resumable.
func (e *Engine) RunContext(ctx context.Context, expert Expert, onStep func(IterationRecord) bool) (*Summary, error) {
	for !e.Done() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		record, err := e.StepContext(ctx, expert)
		if err != nil {
			return nil, err
		}
		if onStep != nil && !onStep(record) {
			break
		}
	}
	return &Summary{
		Iterations:       e.iteration,
		EffortSpent:      e.effortSpent,
		EffortRatio:      e.EffortRatio(),
		FinalUncertainty: e.Uncertainty(),
		GoalReached:      e.cfg.Goal != nil && e.cfg.Goal(e),
		Assignment:       e.Assignment(),
		History:          e.History(),
	}, nil
}
