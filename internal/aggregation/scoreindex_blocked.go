package aggregation

import (
	"math"

	"crowdval/internal/model"
)

// This file implements the blocked hypothetical scorer the engine runs: a
// fused ripple walk over contiguous, answered-label-major tables.
//
// Layout. The scalar scratch (NewScratch) walks the log-confusion table in
// true-label-major layout, so accumulating one observed answer a into a
// posterior row reads block[a], block[a+m], block[a+2m], ... — an m-strided
// gather. The blocked scratch reads the transposed table
// (ScoreIndex.logConfT) and transposed staged blocks, where the same
// accumulation is one contiguous m-run, row[l] += blockT[a·m + l]; the
// M-step likewise accumulates soft counts into a transposed scratch with the
// assignment row hoisted once per answer instead of m Prob calls. Ripple
// objects' answers come from the index's CSR copy of the object adjacency
// (ScoreIndex.adj), one contiguous slab instead of one slice header per
// object.
//
// Fused walk. Scoring candidate o (d answering workers, L labels with
// p > 0) first stages the L·d re-estimated log-confusion blocks — one pass
// over each answering worker's answers fills all L of its blocks — then walks
// the ripple set — every object o's workers answered — once. Each ripple
// object is deduplicated, checked for validation and read from the CSR once,
// and all L hypothesis rows are computed in that visit: the answers before
// the first touched worker add the same global-table runs under every
// hypothesis, so that prefix is summed once and copied; the rest are summed
// per label. A touched worker is found through an O(1) stamped slot per
// worker instead of a scan of the d staged workers per answer. The
// normalization skips math.Exp for the row's maximal term, whose argument is
// exactly 0 (exp(0) == 1 exactly; rows are finite because every log is
// floored at 1e-12).
//
// Cost per candidate: the M-step is one pass per answering worker w over
// its answers, O(answers-of-w · L · m), plus L·m² logs; the E-step is one ripple
// enumeration of R objects (R ≤ Σ answers of o's workers), each costing
// O(answers · m) for the shared prefix plus, per label, O(answers · m) for
// the remainder and m−1 exps, m logs and m divides. The scalar scratch, by
// contrast, walks each worker's answers and the ripple set once per label,
// scans the d staged workers for every answer and pays m exps per row; on
// the serving shapes the fused walk selects ~1.5× faster (BENCHMARKS.md).
// The CSR copy costs O(#answers) per index build or Rebase, not per
// candidate.
//
// The blocked scorer is BIT-IDENTICAL to the scalar one by construction:
// every floating-point operation happens on the same values in the same
// order — the per-cell soft-count add sequence, the eps smoothing, the
// per-true-label row normalization (sum in ascending answered-label order,
// uniform fallback on non-positive sums), the 1e-12 log floor, each row's
// accumulation over answers in worker order, the max/exp/sum/divide tail,
// the per-label deltaH sums in ripple order and the p-weighted sum over
// labels in ascending order all mirror the scalar path operation for
// operation, only through a different memory layout and loop nest.
// TestBlockedScratchMatchesScalar and the maintained-index differential
// suite pin the equivalence bit for bit, which is what lets the engine
// default to the blocked path without changing any selection contract. Per
// BENCHMARKS.md ground rules the scalar path stays frozen under its recorded
// variant names.

// workerSlot maps a worker to its staged confusion blocks for the candidate
// being scored: idx is the worker's position among the candidate's answers,
// valid only while stamp equals the scratch's current stamp.
type workerSlot struct {
	stamp, idx int32
}

// NewBlockedScratch prepares a per-goroutine scratch whose hypothetical E/M
// passes run as one fused walk on the contiguous transposed layout. Results
// are bit-identical to NewScratch. EnsureHypoTables is run on the index if it
// has not been already.
func (ix *ScoreIndex) NewBlockedScratch() *HypoScratch {
	ix.EnsureHypoTables()
	m := ix.m
	return &HypoScratch{
		ix:      ix,
		hypoRow: make([]float64, m*m),
		row:     make([]float64, m),
		confT:   make([]float64, m*m*m),
		seen:    make([]int32, ix.n),
		blocked: true,
		slots:   make([]workerSlot, ix.answers.NumWorkers()),
		labels:  make([]int, 0, m),
		rows:    make([]float64, m*m),
		deltaH:  make([]float64, m),
	}
}

// fusedConditionalUncertainty is ConditionalUncertainty for a blocked
// scratch: stage the re-estimated log-confusion blocks of every label with
// p > 0 (blocks[(k·d + i)·m² …] for staged label k and answering worker i),
// then walk the ripple set once, folding every label's entropy change into
// its own deltaH in ripple order, and finally weight the per-label totals in
// ascending label order — the sums hypotheticalUncertainty forms one label
// at a time.
func (sc *HypoScratch) fusedConditionalUncertainty(object int) float64 {
	ix := sc.ix
	mm := ix.m * ix.m
	touched := ix.adj[ix.adjStart[object]:ix.adjStart[object+1]]
	d := len(touched)

	probs := ix.probSet.Assignment.RowSlice(object)
	sc.labels = sc.labels[:0]
	for l, p := range probs {
		if p > 0 {
			sc.labels = append(sc.labels, l)
		}
	}
	if need := len(sc.labels) * d * mm; cap(sc.blocks) < need {
		sc.blocks = make([]float64, need)
	} else {
		sc.blocks = sc.blocks[:need]
	}

	// One point-mass row per staged label; the pinned row's entropy drops
	// to zero under every hypothesis.
	clear(sc.hypoRow)
	for k, l := range sc.labels {
		sc.hypoRow[k*ix.m+l] = 1
		sc.deltaH[k] = -ix.entropies[object]
	}
	// Frontier M-step: every staged label's block of one worker from one
	// pass over its answers.
	sc.stamp++
	for i, a := range touched {
		sc.slots[a.worker] = workerSlot{stamp: sc.stamp, idx: int32(i)}
		sc.reestimateConfusionBlocked(int(a.worker), object)
		for k := range sc.labels {
			b := (k*d + i) * mm
			fillLogBlockFromT(sc.blocks[b:b+mm], sc.confT[k*mm:(k+1)*mm])
		}
	}

	// Frontier E-step: one visit per ripple object, all labels at once.
	// Objects shared by several touched workers are visited once (stamp
	// dedupe); validated objects stay pinned at zero entropy.
	validation := ix.probSet.Validation
	for _, a := range touched {
		for _, oa := range ix.answers.WorkerView(int(a.worker)) {
			o := oa.Object
			if o == object || sc.seen[o] == sc.stamp {
				continue
			}
			sc.seen[o] = sc.stamp
			if validation.Get(o) != model.NoLabel {
				continue
			}
			sc.rippleRows(o, d)
		}
	}

	expected := 0.0
	for k, l := range sc.labels {
		h := ix.totalH + sc.deltaH[k]
		if h < 0 {
			h = 0
		}
		expected += probs[l] * h
	}
	return expected
}

// rippleRows computes ripple object o's posterior row under every staged
// hypothesis and adds each row's entropy change to that label's deltaH. Per
// label the row is the log-priors plus one contiguous m-run per answer in
// worker order — a staged block for touched workers, the transposed global
// table for everyone else — then normalized; d is the candidate's answer
// degree, the stride between staged labels' block groups.
func (sc *HypoScratch) rippleRows(o, d int) {
	ix := sc.ix
	m := ix.m
	mm := m * m
	answers := ix.adj[ix.adjStart[o]:ix.adjStart[o+1]]

	// The answers before the first touched worker add the same runs under
	// every hypothesis: sum that prefix once.
	base := sc.row
	copy(base, ix.logPriors)
	first := 0
	for ; first < len(answers); first++ {
		a := answers[first]
		if sc.slots[a.worker].stamp == sc.stamp {
			break
		}
		lf := ix.logConfT[int(a.worker)*mm+int(a.label)*m:]
		lf = lf[:len(base)]
		for l := range base {
			base[l] += lf[l]
		}
	}
	rest := answers[first:]

	h := ix.entropies[o]
	for k := range sc.labels {
		row := sc.rows[k*m : (k+1)*m]
		copy(row, base)
		for _, a := range rest {
			var lf []float64
			if s := sc.slots[a.worker]; s.stamp == sc.stamp {
				lf = sc.blocks[(k*d+int(s.idx))*mm+int(a.label)*m:]
			} else {
				lf = ix.logConfT[int(a.worker)*mm+int(a.label)*m:]
			}
			lf = lf[:len(row)]
			for l := range row {
				row[l] += lf[l]
			}
		}
		normalizeLogRow(row)
		sc.deltaH[k] += entropyOfRow(row) - h
	}
}

// normalizeLogRow turns a row of log-posteriors into a probability row in
// place — max, exp of each term's distance to it, sum, divide: the tail of
// posteriorRowHypo operation for operation, except that exp is not called
// for the first maximal term, whose distance is exactly 0 and exp(0) == 1.
func normalizeLogRow(row []float64) {
	maxLog, top := row[0], 0
	for l := 1; l < len(row); l++ {
		if row[l] > maxLog {
			maxLog, top = row[l], l
		}
	}
	sum := 0.0
	for l, v := range row {
		if l == top {
			row[l] = 1
		} else {
			row[l] = math.Exp(v - maxLog)
		}
		sum += row[l]
	}
	for l := range row {
		row[l] /= sum
	}
}

// reestimateConfusionBlocked is the blocked mirror of reestimateConfusionHypo
// for every staged label at once: in one pass over worker w's answers it
// re-estimates the worker's confusion matrix under each hypothesis k — the
// assignment row of hypoObject substituted by point-mass row k of
// sc.hypoRow — accumulating into the transposed answered-label-major
// scratch sc.confT[k·m² …]. Per hypothesis the per-cell operation sequence —
// adds in ascending true-label order per answer, eps smoothing,
// per-true-label row normalization with the uniform fallback — matches the
// scalar path (and model.ConfusionMatrix.Smooth) exactly, so every cell
// holds the same bits.
func (sc *HypoScratch) reestimateConfusionBlocked(w, hypoObject int) {
	ix := sc.ix
	m := ix.m
	mm := m * m
	u := ix.probSet.Assignment
	confT := sc.confT[:len(sc.labels)*mm]
	clear(confT)
	for _, oa := range ix.answers.WorkerView(w) {
		at := int(oa.Label) * m
		if oa.Object == hypoObject {
			for k := range sc.labels {
				dst := confT[k*mm+at:][:m]
				for l, p := range sc.hypoRow[k*m : (k+1)*m] {
					dst[l] += p
				}
			}
			continue
		}
		row := u.RowSlice(oa.Object)
		for k := range sc.labels {
			dst := confT[k*mm+at:][:m]
			for l, p := range row {
				dst[l] += p
			}
		}
	}
	for i := range confT {
		confT[i] += ix.smoothing
	}
	for k := range sc.labels {
		c := confT[k*mm : (k+1)*mm]
		for l := 0; l < m; l++ {
			sum := 0.0
			for a := 0; a < m; a++ {
				sum += c[a*m+l]
			}
			if sum <= 0 {
				p := 1 / float64(m)
				for a := 0; a < m; a++ {
					c[a*m+l] = p
				}
				continue
			}
			for a := 0; a < m; a++ {
				c[a*m+l] /= sum
			}
		}
	}
}

// fillLogBlockFromT writes the log of a transposed confusion scratch into a
// transposed staged block, flooring hard zeros at 1e-12 — the same floor and
// log fillLogConfBlock applies, on the same cell values, so staged blocks of
// the two layouts are bit-identical transposes of each other.
func fillLogBlockFromT(dst, confT []float64) {
	for i, p := range confT {
		if p <= 0 {
			p = 1e-12
		}
		dst[i] = math.Log(p)
	}
}

// fillLogConfBlockT writes one worker's m² log-confusion block in transposed
// answered-label-major layout (dst[a·m + l] = log F(l, a), floored at 1e-12).
// It logs exactly the cells fillLogConfBlock logs, so the two global tables
// carry identical bits in transposed positions.
func fillLogConfBlockT(dst []float64, f *model.ConfusionMatrix, m int) {
	for l := 0; l < m; l++ {
		for a := 0; a < m; a++ {
			p := f.At(model.Label(l), model.Label(a))
			if p <= 0 {
				p = 1e-12
			}
			dst[a*m+l] = math.Log(p)
		}
	}
}
