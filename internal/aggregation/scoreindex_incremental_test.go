package aggregation

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"crowdval/internal/model"
)

// This file pins the maintained-view contract of the ScoreIndex: after any
// history of mutations and delta aggregations, an index maintained by
// in-place Rebase patches is bit-identical — entropies, totalH, log-prior and
// both log-confusion table layouts — to one rebuilt from scratch with
// NewScoreIndex + EnsureHypoTables on the same state, CSR adjacency copy
// included. It also pins the blocked (fused-walk) hypothetical scorer against
// the scalar one, bit for bit, on fresh and on maintained indexes, which is
// what lets the engine default to the blocked scorer.

// assertIndexBitIdentical compares every maintained table of got against a
// from-scratch rebuild want, bit for bit.
func assertIndexBitIdentical(t *testing.T, step int, got, want *ScoreIndex) {
	t.Helper()
	if got.ProbSet() != want.ProbSet() {
		t.Fatalf("step %d: maintained index describes %p, rebuild describes %p", step, got.ProbSet(), want.ProbSet())
	}
	if got.n != want.n || got.m != want.m {
		t.Fatalf("step %d: maintained dims %dx%d, rebuild %dx%d", step, got.n, got.m, want.n, want.m)
	}
	for o := 0; o < want.n; o++ {
		if got.entropies[o] != want.entropies[o] {
			t.Fatalf("step %d: entropy of object %d: maintained %v, rebuild %v",
				step, o, got.entropies[o], want.entropies[o])
		}
	}
	if got.totalH != want.totalH {
		t.Fatalf("step %d: totalH: maintained %v, rebuild %v", step, got.totalH, want.totalH)
	}
	if !slices.Equal(got.adjStart, want.adjStart) || !slices.Equal(got.adj, want.adj) {
		t.Fatalf("step %d: CSR adjacency differs: maintained %d answers, rebuild %d",
			step, len(got.adj), len(want.adj))
	}
	for name, pair := range map[string][2][]float64{
		"logPriors": {got.logPriors, want.logPriors},
		"logConf":   {got.logConf, want.logConf},
		"logConfT":  {got.logConfT, want.logConfT},
	} {
		if len(pair[0]) != len(pair[1]) {
			t.Fatalf("step %d: %s length: maintained %d, rebuild %d", step, name, len(pair[0]), len(pair[1]))
		}
		for i := range pair[1] {
			if pair[0][i] != pair[1][i] {
				t.Fatalf("step %d: %s[%d]: maintained %v, rebuild %v", step, name, i, pair[0][i], pair[1][i])
			}
		}
	}
}

func sortedDedup(xs []int) []int {
	sort.Ints(xs)
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// TestScoreIndexRebaseMatchesRebuild drives seeded random histories of
// ingests, validations, retractions and growth through the delta aggregation
// path, maintaining one index by Rebase across every step and asserting it
// stays bit-identical to a from-scratch rebuild. Mid-history the maintained
// index is dropped and rebuilt cold — the snapshot/resume shape — and
// patching must resume seamlessly. Growth must fail the patch (dimension
// change) and fall back to the rebuild.
func TestScoreIndexRebaseMatchesRebuild(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 5} {
		t.Run("", func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			n, k, m := 24+rng.Intn(8), 6, 2+rng.Intn(2)
			answers := model.MustNewAnswerSet(n, k, m)
			for o := 0; o < n; o++ {
				truth := model.Label(o % m)
				for w := 0; w < k-1; w++ {
					l := truth
					if rng.Float64() > 0.75 {
						l = model.Label(rng.Intn(m))
					}
					if err := answers.SetAnswer(o, w, l); err != nil {
						t.Fatal(err)
					}
				}
			}
			validation := model.NewValidation(n)
			cfg := EMConfig{Parallelism: 1}
			iem := &IncrementalEM{Config: cfg, Delta: DeltaConfig{Enabled: true}}
			res, err := iem.Aggregate(answers, validation, nil)
			if err != nil {
				t.Fatal(err)
			}
			maintained := NewScoreIndex(answers, res.ProbSet, cfg)
			maintained.EnsureHypoTables()

			patched, rebuilt := 0, 0
			for step := 0; step < 40; step++ {
				var dirtyObjects, dirtyWorkers []int
				grew := false
				switch op := rng.Intn(10); {
				case op < 4: // ingest one answer for an existing object
					o, w := rng.Intn(answers.NumObjects()), rng.Intn(answers.NumWorkers())
					if err := answers.SetAnswer(o, w, model.Label(rng.Intn(m))); err != nil {
						t.Fatal(err)
					}
					dirtyObjects = append(dirtyObjects, o)
					dirtyWorkers = append(dirtyWorkers, w)
				case op < 7: // expert validates an object
					o := rng.Intn(answers.NumObjects())
					validation.Set(o, model.Label(rng.Intn(m)))
					dirtyObjects = append(dirtyObjects, o)
				case op < 9: // a validation is retracted
					o := rng.Intn(answers.NumObjects())
					validation.Set(o, model.NoLabel)
					dirtyObjects = append(dirtyObjects, o)
				default: // growth: a new object with a couple of answers
					grew = true
					o := answers.NumObjects()
					if err := answers.Grow(o+1, answers.NumWorkers()); err != nil {
						t.Fatal(err)
					}
					if err := validation.Grow(o + 1); err != nil {
						t.Fatal(err)
					}
					for w := 0; w < 2; w++ {
						if err := answers.SetAnswer(o, w, model.Label(rng.Intn(m))); err != nil {
							t.Fatal(err)
						}
						dirtyWorkers = append(dirtyWorkers, w)
					}
					dirtyObjects = append(dirtyObjects, o)
				}

				prev := res.ProbSet
				if grew {
					// A grown session re-aggregates cold at this layer; the
					// engine's warm growth path is covered by the root suite.
					res, err = iem.Aggregate(answers, validation, nil)
				} else {
					delta := &Delta{Objects: sortedDedup(dirtyObjects), Workers: sortedDedup(dirtyWorkers)}
					res, err = iem.AggregateDeltaContext(context.Background(), answers, validation, prev, delta)
				}
				if err != nil {
					t.Fatal(err)
				}

				if step == 20 {
					// Snapshot/resume shape: the maintained index does not
					// survive a process boundary; a resumed process builds
					// cold and patches from there.
					maintained = NewScoreIndex(answers, res.ProbSet, cfg)
					maintained.EnsureHypoTables()
				} else if maintained.Rebase(answers, res.ProbSet) {
					patched++
				} else {
					if !grew {
						t.Fatalf("step %d: Rebase failed without a dimension change", step)
					}
					maintained = NewScoreIndex(answers, res.ProbSet, cfg)
					maintained.EnsureHypoTables()
					rebuilt++
				}
				if grew && step != 20 && maintained.NumObjects() == 0 {
					t.Fatalf("step %d: empty index after growth rebuild", step)
				}

				fresh := NewScoreIndex(answers, res.ProbSet, cfg)
				fresh.EnsureHypoTables()
				assertIndexBitIdentical(t, step, maintained, fresh)

				// The maintained index must also serve hypothetical scoring
				// identically to the rebuild, concurrently (race coverage:
				// Rebase above ran with readers excluded, scoring below
				// shares the patched index across goroutines).
				candidates := validation.UnvalidatedObjects()
				if len(candidates) > 3 {
					candidates = candidates[:3]
				}
				var wg sync.WaitGroup
				for _, o := range candidates {
					wg.Add(1)
					go func(o int) {
						defer wg.Done()
						got := maintained.NewScratch().ConditionalUncertainty(o)
						blocked := maintained.NewBlockedScratch().ConditionalUncertainty(o)
						want := fresh.NewScratch().ConditionalUncertainty(o)
						if got != want || blocked != want {
							t.Errorf("step %d: H(P|%d): maintained %v (blocked %v), rebuild %v", step, o, got, blocked, want)
						}
					}(o)
				}
				wg.Wait()
			}
			if patched == 0 {
				t.Fatal("history never exercised the patch path")
			}
			if rebuilt == 0 {
				t.Fatal("history never exercised the growth-rebuild fallback")
			}
		})
	}
}

// TestRebaseRejectsShapeChanges: the patch must refuse states it cannot
// describe — a different answer set, changed dimensions, a changed worker
// count, or nil — leaving the index untouched and valid for its own state.
func TestRebaseRejectsShapeChanges(t *testing.T) {
	answers, _, res := scoreIndexCrowd(t, 16, 1)
	ix := NewScoreIndex(answers, res.ProbSet, EMConfig{})
	if ix.Rebase(answers, nil) {
		t.Fatal("Rebase accepted a nil state")
	}
	other := answers.Clone()
	if ix.Rebase(other, res.ProbSet) {
		t.Fatal("Rebase accepted a different answer set")
	}
	grown := &model.ProbabilisticAnswerSet{
		Answers:    answers,
		Validation: res.ProbSet.Validation,
		Assignment: model.NewAssignmentMatrix(answers.NumObjects()+1, answers.NumLabels()),
		Confusions: res.ProbSet.Confusions,
	}
	if ix.Rebase(answers, grown) {
		t.Fatal("Rebase accepted changed dimensions")
	}
	fewer := &model.ProbabilisticAnswerSet{
		Answers:    answers,
		Validation: res.ProbSet.Validation,
		Assignment: res.ProbSet.Assignment,
		Confusions: res.ProbSet.Confusions[:len(res.ProbSet.Confusions)-1],
	}
	if ix.Rebase(answers, fewer) {
		t.Fatal("Rebase accepted a changed worker count")
	}
	if ix.ProbSet() != res.ProbSet {
		t.Fatal("failed Rebase moved the index off its state")
	}
}

// TestBlockedScratchMatchesScalar pins the blocked (contiguous transposed
// slab) hypothetical scorer against the scalar reference, bit for bit, on
// every candidate of several seeded crowds — the equivalence that lets the
// engine route delta scoring through the blocked layout by default.
func TestBlockedScratchMatchesScalar(t *testing.T) {
	for _, seed := range []int64{1, 3, 7, 13} {
		answers, validation, res := scoreIndexCrowd(t, 32, seed)
		ix := NewScoreIndex(answers, res.ProbSet, EMConfig{})
		scalar := ix.NewScratch()
		blocked := ix.NewBlockedScratch()
		for _, o := range validation.UnvalidatedObjects() {
			s, b := scalar.ConditionalUncertainty(o), blocked.ConditionalUncertainty(o)
			if s != b {
				t.Fatalf("seed %d object %d: scalar H(P|o) = %v, blocked = %v", seed, o, s, b)
			}
		}
	}
}

// TestBlockedScratchZeroAllocsPerCandidate: the blocked scorer must keep the
// scalar path's zero-allocation steady state.
func TestBlockedScratchZeroAllocsPerCandidate(t *testing.T) {
	answers, validation, res := scoreIndexCrowd(t, 64, 7)
	ix := NewScoreIndex(answers, res.ProbSet, EMConfig{})
	sc := ix.NewBlockedScratch()
	candidates := validation.UnvalidatedObjects()
	for _, o := range candidates {
		sc.ConditionalUncertainty(o)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		sc.ConditionalUncertainty(candidates[i%len(candidates)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("blocked scorer allocates %.1f objects per candidate, want 0", allocs)
	}
}

// assertBlockedMatchesScalar scores every unvalidated object with a blocked
// scratch on got and the scalar scratch on want (a fresh build of the same
// state), and requires identical bits.
func assertBlockedMatchesScalar(t *testing.T, step string, got, want *ScoreIndex) {
	t.Helper()
	blocked, scalar := got.NewBlockedScratch(), want.NewScratch()
	for _, o := range want.ProbSet().Validation.UnvalidatedObjects() {
		b, s := blocked.ConditionalUncertainty(o), scalar.ConditionalUncertainty(o)
		if math.Float64bits(b) != math.Float64bits(s) {
			t.Fatalf("%s: object %d: blocked on the maintained index %v, scalar on a rebuild %v", step, o, b, s)
		}
	}
}

// rebaseAndCompare patches maintained onto p, requires the patch to succeed,
// and checks it against a fresh build: tables and CSR bit for bit, and the
// blocked scorer on the patched index against the scalar scorer on the
// rebuild. It returns the rebuild.
func rebaseAndCompare(t *testing.T, step string, maintained *ScoreIndex, answers *model.AnswerSet, p *model.ProbabilisticAnswerSet, cfg EMConfig) *ScoreIndex {
	t.Helper()
	if !maintained.Rebase(answers, p) {
		t.Fatalf("%s: Rebase failed without a shape change", step)
	}
	fresh := NewScoreIndex(answers, p, cfg)
	fresh.EnsureHypoTables()
	assertIndexBitIdentical(t, 0, maintained, fresh)
	assertBlockedMatchesScalar(t, step, maintained, fresh)
	return fresh
}

// TestMaintainedBlockedMatchesScalarRebuild is the differential test of the
// maintained serving path: an index patched by Rebase after an in-place
// ingest (no growth) and after a validation must score every candidate with
// the blocked scorer exactly as the scalar scorer scores it on a freshly
// built index. Three labels; objects 0 and 1 are validated and answered by
// every regular worker, so every candidate's ripple set holds validated
// objects; the ingested answers come from a worker new to those objects, so
// a stale CSR copy would miss them.
func TestMaintainedBlockedMatchesScalarRebuild(t *testing.T) {
	for _, seed := range []int64{2, 4, 6} {
		rng := rand.New(rand.NewSource(seed))
		n, k, m := 30, 7, 3
		answers := model.MustNewAnswerSet(n, k, m)
		for o := 0; o < n; o++ {
			for w := 0; w < k-1; w++ {
				l := model.Label(o % m)
				if rng.Float64() > 0.7 {
					l = model.Label(rng.Intn(m))
				}
				if err := answers.SetAnswer(o, w, l); err != nil {
					t.Fatal(err)
				}
			}
		}
		validation := model.NewValidation(n)
		validation.Set(0, 0)
		validation.Set(1, 1)
		cfg := EMConfig{Parallelism: 1}
		iem := &IncrementalEM{Config: cfg, Delta: DeltaConfig{Enabled: true}}
		res, err := iem.Aggregate(answers, validation, nil)
		if err != nil {
			t.Fatal(err)
		}
		maintained := NewScoreIndex(answers, res.ProbSet, cfg)
		maintained.EnsureHypoTables()
		for round := 0; round < 3; round++ {
			// Ingest without growth: worker k-1 answers an existing object,
			// written into the same answer set the index refers to.
			o := 2 + rng.Intn(n-2)
			if err := answers.SetAnswer(o, k-1, model.Label(rng.Intn(m))); err != nil {
				t.Fatal(err)
			}
			delta := &Delta{Objects: []int{o}, Workers: []int{k - 1}}
			if res, err = iem.AggregateDeltaContext(context.Background(), answers, validation, res.ProbSet, delta); err != nil {
				t.Fatal(err)
			}
			rebaseAndCompare(t, "ingest", maintained, answers, res.ProbSet, cfg)

			// The expert validates an unvalidated object.
			candidates := validation.UnvalidatedObjects()
			v := candidates[rng.Intn(len(candidates))]
			validation.Set(v, model.Label(rng.Intn(m)))
			delta = &Delta{Objects: []int{v}}
			if res, err = iem.AggregateDeltaContext(context.Background(), answers, validation, res.ProbSet, delta); err != nil {
				t.Fatal(err)
			}
			rebaseAndCompare(t, "validation", maintained, answers, res.ProbSet, cfg)
		}
	}
}

// TestMaintainedBlockedMatchesScalarEdgeRows covers the rows aggregation
// rarely produces, on hand-built states with dyadic probabilities (all sums
// exact): a candidate with a zero-probability label, a validated ripple
// object, and ripple rows whose maximum is tied. Labels 1 and 2 are
// interchangeable everywhere except in the candidate's row (0.5, 0.5, 0) and
// an unanswered object's row (0.5, 0, 0.5) that balances the priors, so
// under the hypothesis e(candidate) = 0 the re-estimated confusions, and
// with them every ripple row, tie labels 1 and 2 at the maximum. The index
// is patched across an in-place ingest and a validation, as the engine
// patches it.
func TestMaintainedBlockedMatchesScalarEdgeRows(t *testing.T) {
	const n, k, m = 10, 4, 3
	const candidate, balance, validated = 2, 9, 5
	answers := model.MustNewAnswerSet(n, k, m)
	for o := 0; o < balance; o++ {
		for _, w := range []int{o % k, (o + 1) % k} {
			if err := answers.SetAnswer(o, w, model.Label(1+(o+w)%2)); err != nil {
				t.Fatal(err)
			}
		}
	}
	confusions := make([]*model.ConfusionMatrix, k)
	for w := range confusions {
		c := model.NewConfusionMatrix(m)
		for a, p := range []float64{0.5, 0.25, 0.25} {
			c.Set(0, model.Label(a), p)
		}
		for l := 1; l < m; l++ {
			for a, p := range []float64{0.25, 0.375, 0.375} {
				c.Set(model.Label(l), model.Label(a), p)
			}
		}
		confusions[w] = c
	}
	state := func(validation *model.Validation) *model.ProbabilisticAnswerSet {
		u := model.NewAssignmentMatrix(n, m)
		for o := 0; o < n; o++ {
			row := []float64{0.25, 0.375, 0.375}
			switch {
			case o == candidate:
				row = []float64{0.5, 0.5, 0}
			case o == balance:
				row = []float64{0.5, 0, 0.5}
			case validation.Get(o) != model.NoLabel:
				row = []float64{1, 0, 0}
			}
			u.SetRow(o, row)
		}
		return &model.ProbabilisticAnswerSet{Answers: answers, Validation: validation, Assignment: u, Confusions: confusions}
	}
	cfg := EMConfig{Parallelism: 1}
	validation := model.NewValidation(n)
	maintained := NewScoreIndex(answers, state(validation), cfg)
	maintained.EnsureHypoTables()

	// In-place ingest on an existing object, then a validation (label 0
	// keeps labels 1 and 2 interchangeable).
	if err := answers.SetAnswer(4, 3, 2); err != nil {
		t.Fatal(err)
	}
	rebaseAndCompare(t, "ingest", maintained, answers, state(validation), cfg)
	validation = validation.Clone()
	validation.Set(validated, 0)
	fresh := rebaseAndCompare(t, "validation", maintained, answers, state(validation), cfg)

	// The edge rows are really there: the candidate has a zero-probability
	// label, a validated object is in its ripple set, and under e(o) = 0
	// ripple rows tie at their maximum.
	if fresh.probSet.Assignment.Prob(candidate, 2) != 0 {
		t.Fatal("candidate has no zero-probability label")
	}
	scalar := fresh.NewScratch()
	scalar.hypotheticalUncertainty(candidate, 0)
	ripple := map[int]bool{}
	for _, w := range scalar.workers {
		for _, oa := range answers.WorkerView(w) {
			ripple[oa.Object] = oa.Object != candidate
		}
	}
	if !ripple[validated] {
		t.Fatalf("validated object %d is not in the candidate's ripple set", validated)
	}
	ties := 0
	for o, in := range ripple {
		if !in || o == validated {
			continue
		}
		scalar.posteriorRowHypo(o)
		if r := scalar.row; r[1] == r[2] && r[1] >= r[0] {
			ties++
		}
	}
	if ties == 0 {
		t.Fatal("no ripple row ties at its maximum")
	}
}

// TestNormalizeLogRowMatchesExpTail: skipping exp for the maximal term keeps
// posteriorRowHypo's max/exp/sum/divide tail bit for bit, with tied maxima
// (the first maximum skips exp, later ones compute exp(0)) and without.
func TestNormalizeLogRowMatchesExpTail(t *testing.T) {
	rows := [][]float64{
		{-1.5, -0.25, -0.25},
		{-0.25, -0.25, -3},
		{-2, -2, -2},
		{-27.631021115928547, -0.1, -13.2, -0.1},
		{-0.7},
		{0.3, -1e-300, 12.5},
	}
	for _, in := range rows {
		want := append([]float64(nil), in...)
		maxLog := want[0]
		for _, v := range want[1:] {
			if v > maxLog {
				maxLog = v
			}
		}
		sum := 0.0
		for l := range want {
			want[l] = math.Exp(want[l] - maxLog)
			sum += want[l]
		}
		for l := range want {
			want[l] /= sum
		}
		got := append([]float64(nil), in...)
		normalizeLogRow(got)
		for l := range want {
			if math.Float64bits(got[l]) != math.Float64bits(want[l]) {
				t.Fatalf("row %v: entry %d = %v, exp tail %v", in, l, got[l], want[l])
			}
		}
	}
}
