// Package guidance implements the expert-guidance strategies of §5 of the
// paper: random selection, the entropy baseline, uncertainty-driven selection
// by expected information gain, worker-driven selection by expected number of
// detected faulty workers, and the hybrid strategy that dynamically weighs
// the two. It also provides the confirmation check for erroneous expert
// validations (§5.5).
package guidance

import (
	stdctx "context"
	"math/rand"
	"runtime"

	"crowdval/internal/aggregation"
	"crowdval/internal/cverr"
	"crowdval/internal/model"
	"crowdval/internal/par"
	"crowdval/internal/spamdetect"
)

// Context carries everything a selection strategy may need to score candidate
// objects for the next expert validation.
type Context struct {
	// Ctx optionally carries a cancellation context for the scoring work.
	// Candidate scoring re-aggregates the answers once per (candidate, label)
	// pair, which on large answer sets dominates the latency of a validation
	// step; a cancelled Ctx aborts the scoring with Ctx.Err(). Nil means
	// "never cancel". Context is a per-call parameter object — it is built
	// fresh for every Select call — so carrying the context here keeps the
	// Strategy interface free of a second parameter.
	Ctx stdctx.Context
	// Answers is the (possibly quarantined) answer set.
	Answers *model.AnswerSet
	// ProbSet is the current probabilistic answer set.
	ProbSet *model.ProbabilisticAnswerSet
	// Candidates are the object indices eligible for validation (typically
	// all objects the expert has not validated yet). An empty slice means
	// "all unvalidated objects of ProbSet".
	Candidates []int
	// Aggregator is used by strategies that must evaluate hypothetical
	// expert inputs (information gain). When nil, an IncrementalEM with
	// default configuration is used.
	Aggregator aggregation.Aggregator
	// Detector is used by the worker-driven strategy. When nil, a detector
	// with default thresholds is used.
	Detector *spamdetect.Detector
	// Parallel enables concurrent scoring of candidates.
	Parallel bool
	// MaxParallelism caps the number of scoring goroutines; values < 1 use
	// GOMAXPROCS.
	MaxParallelism int
	// Index optionally carries the per-aggregation scoring index (per-object
	// entropies, hypothetical-scoring tables). The validation engine builds
	// it once per aggregation and reuses it across Select calls; when nil,
	// scoring strategies build one on the fly for this call.
	Index *aggregation.ScoreIndex
	// DeltaScore routes candidate scoring through the delta-accelerated
	// hypothetical scorers: the uncertainty-driven strategy estimates each
	// hypothesis with one frontier-restricted EM pass (ScoreIndex/HypoScratch)
	// instead of a full warm EM re-aggregation, and the worker-driven
	// strategy reassesses only the candidate's answering workers against a
	// baseline detection instead of re-detecting the whole community. The
	// worker-driven path is exact; the uncertainty path approximates the
	// full-EM reference within the documented information-gain tolerance
	// (see the parity tests).
	DeltaScore bool
	// BlockedRows routes delta scoring through the blocked hypothetical
	// scorer (aggregation.ScoreIndex.NewBlockedScratch): one fused ripple
	// walk per candidate that computes every label's hypothesis rows per
	// ripple object in a single visit, over contiguous transposed
	// log-confusion slabs and the index's CSR copy of the object adjacency.
	// Scores are bit-identical to the scalar scratch — the same floats go
	// through the same operations in the same order — so this is a pure
	// execution-strategy knob; it has no effect without DeltaScore.
	BlockedRows bool
}

func (c *Context) candidates() []int {
	if len(c.Candidates) > 0 {
		return c.Candidates
	}
	return c.ProbSet.Validation.UnvalidatedObjects()
}

// ctx returns the cancellation context, defaulting to context.Background.
func (c *Context) ctx() stdctx.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return stdctx.Background()
}

// aggregator and detector default to serial instances: strategies call them
// once per scored candidate, potentially from MaxParallelism scoring
// goroutines at once, so a GOMAXPROCS-sharded default would nest parallelism
// and oversubscribe the CPU. Explicit Aggregator/Detector fields are used
// exactly as given — a caller that scores serially may hand in sharded
// instances (note that core.Engine builds its scoring Context with a
// serialized detector copy when its Parallel flag is set; see core.Config).
func (c *Context) aggregator() aggregation.Aggregator {
	if c.Aggregator != nil {
		return c.Aggregator
	}
	return &aggregation.IncrementalEM{Config: aggregation.EMConfig{Parallelism: 1}}
}

func (c *Context) detector() *spamdetect.Detector {
	if c.Detector != nil {
		return c.Detector
	}
	return &spamdetect.Detector{Parallelism: 1}
}

func (c *Context) parallelism() int {
	if c.MaxParallelism > 0 {
		return c.MaxParallelism
	}
	return runtime.GOMAXPROCS(0)
}

// index returns the per-aggregation scoring index, building (and memoizing)
// one when the caller did not supply it. The call must happen before scoring
// fans out: the index is shared read-only by all scoring goroutines.
func (c *Context) index() *aggregation.ScoreIndex {
	if c.Index == nil {
		c.Index = aggregation.NewScoreIndex(c.Answers, c.ProbSet, c.emConfig())
	}
	if c.DeltaScore {
		c.Index.EnsureHypoTables()
	}
	return c.Index
}

// emConfig extracts the EM parameters the hypothetical scorer mirrors from
// the context's aggregator, when it is one of the EM aggregators.
func (c *Context) emConfig() aggregation.EMConfig {
	return aggregation.EMConfigOf(c.Aggregator)
}

// ErrNoCandidates is returned when a strategy is asked to select an object
// but no candidate is available. It aliases the shared sentinel so
// errors.Is matches across layers.
var ErrNoCandidates = cverr.ErrNoCandidates

// Strategy selects the next object for which expert feedback should be
// sought (step "select" of the validation process).
type Strategy interface {
	// Name identifies the strategy in reports and experiment output.
	Name() string
	// Select returns the index of the chosen object.
	Select(ctx *Context) (int, error)
}

// ScoredObject is one ranked candidate of a batched selection: the object and
// the strategy's score for it (information gain for the uncertainty-driven
// strategy, expected detected faulty workers for the worker-driven one,
// entropy for the baseline, 0 for strategies without a meaningful score).
type ScoredObject struct {
	Object int     `json:"object"`
	Score  float64 `json:"score"`
}

// KSelector is implemented by strategies that can return a ranked top-k batch
// of candidates in one scoring pass. The ranking is deterministic — ordered
// by score descending, ties broken toward the smaller object index — and its
// first element is exactly the object Select would return. All strategies of
// this package implement it.
type KSelector interface {
	Strategy
	// SelectK returns up to k ranked candidates (fewer when fewer exist).
	SelectK(ctx *Context, k int) ([]ScoredObject, error)
}

// Random selects a candidate uniformly at random. It models the unguided
// manual validation process.
type Random struct {
	Rand *rand.Rand
}

// Name implements Strategy.
func (r *Random) Name() string { return "random" }

// Select implements Strategy.
func (r *Random) Select(ctx *Context) (int, error) {
	candidates := ctx.candidates()
	if len(candidates) == 0 {
		return -1, ErrNoCandidates
	}
	rng := r.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	return candidates[rng.Intn(len(candidates))], nil
}

// SelectK implements KSelector: k distinct uniform draws (a partial
// Fisher–Yates shuffle). SelectK(ctx, 1) consumes exactly one draw, like
// Select, so mixing the two keeps the pseudo-random stream aligned. Scores
// are zero — random selection has no ranking signal.
func (r *Random) SelectK(ctx *Context, k int) ([]ScoredObject, error) {
	candidates := ctx.candidates()
	if len(candidates) == 0 {
		return nil, ErrNoCandidates
	}
	rng := r.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	if k > len(candidates) {
		k = len(candidates)
	}
	if k < 1 {
		k = 1
	}
	pool := append([]int(nil), candidates...)
	out := make([]ScoredObject, k)
	for i := 0; i < k; i++ {
		j := i + rng.Intn(len(pool)-i)
		pool[i], pool[j] = pool[j], pool[i]
		out[i] = ScoredObject{Object: pool[i]}
	}
	return out, nil
}

// Baseline selects the candidate with the highest entropy, i.e. the most
// "problematic" object. This is the baseline guidance method of §6.6
// (Appendix C).
type Baseline struct{}

// Name implements Strategy.
func (b *Baseline) Name() string { return "baseline-entropy" }

// Select implements Strategy.
func (b *Baseline) Select(ctx *Context) (int, error) {
	candidates := ctx.candidates()
	if len(candidates) == 0 {
		return -1, ErrNoCandidates
	}
	o, _ := aggregation.MaxEntropyObject(ctx.ProbSet.Assignment, candidates)
	return o, nil
}

// SelectK implements KSelector: the k candidates with the highest entropy,
// scored by that entropy. Entropies come from the per-aggregation index (or
// are computed once when the context carries none).
func (b *Baseline) SelectK(ctx *Context, k int) ([]ScoredObject, error) {
	candidates := ctx.candidates()
	if len(candidates) == 0 {
		return nil, ErrNoCandidates
	}
	ix := ctx.index()
	scores := make([]float64, len(candidates))
	for i, o := range candidates {
		scores[i] = ix.ObjectEntropy(o)
	}
	if k < 1 {
		k = 1
	}
	return topKByScore(candidates, scores, k), nil
}

// scorerFunc scores one candidate object. A scorer is used by exactly one
// goroutine, so implementations may keep per-goroutine scratch state.
type scorerFunc func(o int) (float64, error)

// scoreAll evaluates every candidate's score, optionally sharded across
// scoring goroutines through internal/par (the same dispatch the E/M-steps
// use, so cancellation and worker-cap semantics match the rest of the
// codebase). newScorer runs once per shard so each goroutine owns its scratch
// buffers. A cancelled ctx.Ctx aborts the scan between candidates and returns
// the context's error; results are identical for every parallelism degree
// because candidates are scored independently into disjoint slots.
func scoreAll(ctx *Context, candidates []int, newScorer func() scorerFunc) ([]float64, error) {
	scores := make([]float64, len(candidates))
	cancel := ctx.ctx()
	shards := 1
	if ctx.Parallel && len(candidates) > 1 {
		shards = par.Shards(ctx.parallelism(), len(candidates))
	}
	shardErr := make([]error, shards)
	err := par.ForNCtx(cancel, len(candidates), shards, func(shard, lo, hi int) {
		score := newScorer()
		for idx := lo; idx < hi; idx++ {
			if err := cancel.Err(); err != nil {
				shardErr[shard] = err
				return
			}
			v, err := score(candidates[idx])
			if err != nil {
				shardErr[shard] = err
				return
			}
			scores[idx] = v
		}
	})
	if err != nil {
		return nil, err
	}
	for _, err := range shardErr {
		if err != nil {
			return nil, err
		}
	}
	return scores, nil
}

// scoreCandidates evaluates score(o) for every candidate, optionally in
// parallel, and returns the candidate with the maximal score. Ties are broken
// toward the smallest object index so selections stay deterministic. A
// cancelled ctx.Ctx aborts the scan between candidates and returns the
// context's error.
func scoreCandidates(ctx *Context, candidates []int, score scorerFunc) (int, error) {
	return scoreBest(ctx, candidates, func() scorerFunc { return score })
}

// scoreBest is scoreCandidates with a per-goroutine scorer factory.
func scoreBest(ctx *Context, candidates []int, newScorer func() scorerFunc) (int, error) {
	scores, err := scoreAll(ctx, candidates, newScorer)
	if err != nil {
		return -1, err
	}
	best, bestValue := -1, 0.0
	for idx, o := range candidates {
		if best == -1 || scores[idx] > bestValue || (scores[idx] == bestValue && o < best) {
			best, bestValue = o, scores[idx]
		}
	}
	if best == -1 {
		return -1, ErrNoCandidates
	}
	return best, nil
}

// scoreTopK scores every candidate and returns the k best as a deterministic
// ranking (score descending, ties toward the smaller object index).
func scoreTopK(ctx *Context, candidates []int, newScorer func() scorerFunc, k int) ([]ScoredObject, error) {
	scores, err := scoreAll(ctx, candidates, newScorer)
	if err != nil {
		return nil, err
	}
	ranked := topKByScore(candidates, scores, k)
	if len(ranked) == 0 {
		return nil, ErrNoCandidates
	}
	return ranked, nil
}

// topKByScore selects the k best (score descending, ties toward the smaller
// object index) of parallel object/score slices by partial selection: a
// bounded min-heap of the k best seen so far, O(c·log k) instead of a full
// O(c·log c) sort. The returned ranking is fully ordered and deterministic —
// the (score, object) comparator is a total order.
func topKByScore(objects []int, scores []float64, k int) []ScoredObject {
	if k > len(objects) {
		k = len(objects)
	}
	if k <= 0 {
		return nil
	}
	// heap[0] is the worst kept element (min-heap under the ranking order).
	heap := make([]ScoredObject, 0, k)
	for idx, o := range objects {
		cand := ScoredObject{Object: o, Score: scores[idx]}
		if len(heap) < k {
			heap = append(heap, cand)
			for i := len(heap) - 1; i > 0; {
				parent := (i - 1) / 2
				if !ranksBelow(heap[i], heap[parent]) {
					break
				}
				heap[i], heap[parent] = heap[parent], heap[i]
				i = parent
			}
			continue
		}
		if ranksBelow(heap[0], cand) {
			heap[0] = cand
			siftDown(heap, 0)
		}
	}
	// Drain the heap into descending rank order in place: repeatedly swap the
	// worst remaining element to the back and restore the shrunk prefix.
	for end := len(heap) - 1; end > 0; end-- {
		heap[0], heap[end] = heap[end], heap[0]
		siftDown(heap[:end], 0)
	}
	return heap
}

// ranksBelow reports whether a ranks strictly below b in a ranking ordered
// by score descending with ties toward the smaller object index. It is a
// total order, which is what makes rankings deterministic.
func ranksBelow(a, b ScoredObject) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Object > b.Object
}

// siftDown restores the min-heap property (under ranksBelow) of s at index i.
func siftDown(s []ScoredObject, i int) {
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < len(s) && ranksBelow(s[left], s[smallest]) {
			smallest = left
		}
		if right < len(s) && ranksBelow(s[right], s[smallest]) {
			smallest = right
		}
		if smallest == i {
			return
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
}

// topEntropyCandidates returns up to limit candidates with the highest object
// entropy. limit <= 0 returns the candidates unchanged. Pre-filtering by
// entropy keeps the expensive information-gain computation tractable on large
// answer sets without changing which objects are interesting: objects with
// near-zero entropy cannot yield a large gain. Entropies come from the
// per-aggregation index when available and are otherwise computed once into a
// slice — never inside a sort comparator — and the top slice is found by
// partial selection instead of a full sort.
func topEntropyCandidates(ix *aggregation.ScoreIndex, u *model.AssignmentMatrix, candidates []int, limit int) []int {
	if limit <= 0 || len(candidates) <= limit {
		return candidates
	}
	scores := make([]float64, len(candidates))
	if ix != nil {
		for i, o := range candidates {
			scores[i] = ix.ObjectEntropy(o)
		}
	} else {
		for i, o := range candidates {
			scores[i] = aggregation.ObjectEntropy(u, o)
		}
	}
	top := topKByScore(candidates, scores, limit)
	out := make([]int, len(top))
	for i, s := range top {
		out[i] = s.Object
	}
	return out
}
