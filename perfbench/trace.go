package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"crowdval"
)

// runTraced replays one operation stream at every rung and derives each
// layer's self time as its rung's mean per call minus the rung below's.
//
// The stream's length is set by an untraced L4 pass of a third of the run
// length; the traced passes (L4 down to L0) and an untraced L4 twin then
// issue exactly as many calls per client. Every pass must serve exactly
// what L0 served.
func runTraced(ctx context.Context, e *env, base string) (*result, map[string]any, error) {
	fab, data, err := prepare(e)
	if err != nil {
		return nil, nil, err
	}
	budgets, err := nodeBudgets(e.w, data)
	if err != nil {
		fab.closeListeners()
		return nil, nil, err
	}
	single, err := memoryBudget(e.w, data, len(data))
	if err != nil {
		fab.closeListeners()
		return nil, nil, err
	}
	l4, err := fab.start(filepath.Join(e.dir, "l4"), budgets)
	if err != nil {
		return nil, nil, err
	}
	window := time.Duration(e.seconds / 3 * float64(time.Second))
	runOn := func(name string, r rung, traced bool, calls []int) (*pass, error) {
		p := newPass(name, r, e.w, e.seed, data, e.clients, traced)
		p.ladder = true
		if err := p.run(ctx, window, calls); err != nil {
			return nil, err
		}
		return p, nil
	}

	pu, err := runOn("L4-untraced", l4, false, nil)
	if err == nil {
		err = pu.teardown(ctx)
	}
	if err != nil {
		l4.close()
		return nil, nil, err
	}
	calls := pu.windowCalls
	// The fabric's counters are read around the stream only, so set-up
	// (creation records, checkpoints) does not count per operation.
	p4 := newPass("L4", l4, e.w, e.seed, data, e.clients, true)
	p4.ladder = true
	err = p4.setup(ctx)
	before := fab.counts()
	if err == nil {
		p4.window(ctx, window, calls)
		p4.probes(ctx)
	}
	after := fab.counts()
	p4.finish(ctx)
	if err == nil {
		err = p4.teardown(ctx)
	}
	// The untraced twin of the traced L4 pass, run after it so neither
	// gets the process's first, cold pass: their ratio is the overhead.
	var pu2 *pass
	if err == nil {
		pu2, err = runOn("L4-untraced", l4, false, calls)
	}
	l4.close()
	if err != nil {
		return nil, nil, err
	}

	l3, err := newSingleNode(filepath.Join(e.dir, "l3"), single)
	if err != nil {
		return nil, nil, err
	}
	p3, err := runOn("L3", l3, true, calls)
	l3.close()
	if err != nil {
		return nil, nil, err
	}
	var lower [2]*pass
	for i, withWAL := range []bool{false, true} {
		r, err := newManagerRung(filepath.Join(e.dir, fmt.Sprintf("l%d", i+1)), single, withWAL)
		if err != nil {
			return nil, nil, err
		}
		lower[i], err = runOn(fmt.Sprintf("L%d", i+1), r, true, calls)
		r.close()
		if err != nil {
			return nil, nil, err
		}
	}
	p1, p2 := lower[0], lower[1]
	// The session counters describe the window's mix; the probes after it
	// measure other request kinds.
	l0 := newLibRung()
	p0 := newPass("L0", l0, e.w, e.seed, data, e.clients, true)
	p0.ladder = true
	if err := p0.setup(ctx); err != nil {
		return nil, nil, err
	}
	c0 := l0.counts.get()
	p0.window(ctx, window, calls)
	c := l0.counts.get().minus(c0)
	p0.probes(ctx)
	p0.finish(ctx)

	// L0 itself is checked against the serial replay the end-to-end run
	// uses; every other pass against L0.
	ck := &checker{}
	checkFinal(ctx, p0, replay(ctx, p0, replayWorkers(), ck), ck)
	for _, p := range []*pass{pu, p4, pu2, p3, p2, p1} {
		sameOutputs(p0, p, ck)
	}
	for _, msg := range ck.problems {
		fmt.Fprintln(os.Stderr, "perfbench: output check:", msg)
	}

	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	self := func(hi, lo *pass, k kind) float64 { return ms(meanLatency(hi, k) - meanLatency(lo, k)) }
	createSelf := func(hi, lo *pass) float64 { return ms(mean(hi.createSeconds) - mean(lo.createSeconds)) }

	put("session.add_answers_ms", ms(meanLatency(p0, kindIngest)), "ms")
	put("session.next_objects_ms", ms(meanLatency(p0, kindNext)), "ms")
	put("session.submit_ms", ms(meanLatency(p0, kindValidate)), "ms")
	put("session.global_next_ms", ms(meanLatency(p0, kindGlobal)), "ms")
	put("aggregation.em_iterations_per_batch", ratio(c.emIters, c.ingests), "count")
	put("aggregation.delta_iterations_per_batch", ratio(c.dIters, c.ingests), "count")
	put("guidance.index_builds_per_selection", ratio(c.builds, c.selections), "count")
	put("guidance.index_patches_per_selection", ratio(c.patches, c.selections), "count")
	put("guidance.memo_hit_ratio", ratio(c.memoHits, c.selections), "ratio")

	for k := kind(0); k < numKinds; k++ {
		put("manager.self_ms."+k.String(), self(p1, p0, k), "ms")
	}
	n4 := len(streamOps(p4))
	put("manager.evictions_per_op", ratio(int(after.Evictions-before.Evictions), n4), "count")
	put("manager.resumes_per_op", ratio(int(after.Resumes-before.Resumes), n4), "count")
	coalesced := int(after.CoalescedIngests - before.CoalescedIngests)
	put("manager.coalesced_ratio", ratio(coalesced, coalesced+int(after.IngestBatches-before.IngestBatches)), "ratio")
	put("manager.shed", float64(after.ShedIngests-before.ShedIngests), "count")

	enc, dec, size := snapshotCosts(ctx, l0, data, ck)
	put("snapshot.encode_ms", enc, "ms")
	put("snapshot.decode_ms", dec, "ms")
	put("snapshot.bytes", size, "B")

	put("wal.self_ms.ingest", self(p2, p1, kindIngest), "ms")
	put("wal.self_ms.validate", self(p2, p1, kindValidate), "ms")
	put("wal.bytes_per_answer", ratio(int(after.WALBytes-before.WALBytes), int(after.IngestedAnswers-before.IngestedAnswers)), "B")
	put("wal.records", float64(after.WALRecords-before.WALRecords), "count")
	put("wal.syncs", float64(after.WALSyncs-before.WALSyncs), "count")
	put("wal.checkpoints", float64(after.Checkpoints-before.Checkpoints), "count")

	put("http.self_ms.create", createSelf(p3, p2), "ms")
	put("router.self_ms.create", createSelf(p4, p3), "ms")
	for k := kind(0); k < numKinds; k++ {
		put("http.self_ms."+k.String(), self(p3, p2, k), "ms")
		put("router.self_ms."+k.String(), self(p4, p3, k), "ms")
	}
	put("http.request_bytes", ratio(int(l3.reqBytes.Load()), int(l3.requests.Load())), "B")
	put("http.response_bytes", ratio(int(l3.respBytes.Load()), int(l3.requests.Load())), "B")
	put("router.not_owner_rejects", float64(after.notOwner-before.notOwner), "count")

	// Reconciliation: the layers' mean self times, weighted by the stream's
	// mix, against the client's own wall time per operation at L4.
	ladder := []*pass{p0, p1, p2, p3, p4}
	var layerSum float64
	for k := kind(0); k < numKinds; k++ {
		share := ratio(countKind(p4, k), n4)
		layerSum += share * ms(meanLatency(p0, k))
		for i := 1; i < len(ladder); i++ {
			layerSum += share * self(ladder[i], ladder[i-1], k)
		}
	}
	var busy float64
	for _, b := range p4.busy {
		busy += b
	}
	clientOp := ms(busy / float64(n4))
	put("trace.layer_sum_ms", layerSum, "ms")
	put("trace.l4_client_op_ms", clientOp, "ms")
	put("trace.reconcile_gap", (clientOp-layerSum)/clientOp, "ratio")
	put("trace.overhead", perOp(p4)/perOp(pu2)-1, "ratio")

	spansPath := filepath.Join(base, fmt.Sprintf("spans-%s-seed%d.jsonl", e.w.name, e.seed))
	if err := writeSpans(spansPath, []*pass{p4, p3, p2, p1, p0}); err != nil {
		return nil, nil, err
	}

	res := &result{Correct: ck.ok(), Metrics: m}
	for _, p := range []*pass{pu, p4, pu2, p3, p2, p1, p0} {
		res.Attempted += p.attempted.Load()
		res.Failed += p.failed.Load()
	}
	res.Correct = res.Correct && res.Failed == 0
	record := map[string]any{
		"stream_calls_per_client": calls,
		"stream_ops":              n4,
		"reconciled":              math.Abs((clientOp-layerSum)/clientOp) <= 0.05,
		"spans":                   spansPath,
		"problems":                len(ck.problems),
	}
	return res, record, nil
}

// streamOps are the operations of the replayed stream: the window and the
// probes, not the warm-up selections of set-up.
func streamOps(p *pass) []*opRecord {
	var out []*opRecord
	for _, rec := range p.ops() {
		if rec.window || rec.probe {
			out = append(out, rec)
		}
	}
	return out
}

func countKind(p *pass, k kind) int {
	n := 0
	for _, rec := range streamOps(p) {
		if rec.kind == k {
			n++
		}
	}
	return n
}

// meanLatency is the kind's mean successful call time in seconds.
func meanLatency(p *pass, k kind) float64 {
	var xs []float64
	for _, rec := range streamOps(p) {
		if rec.kind == k && rec.err == nil {
			xs = append(xs, rec.latency)
		}
	}
	return mean(xs)
}

// perOp is the stream's mean call time in seconds over all kinds.
func perOp(p *pass) float64 {
	var xs []float64
	for _, rec := range streamOps(p) {
		xs = append(xs, rec.latency)
	}
	return mean(xs)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// snapshotCosts times Session.Snapshot and ResumeSession on each final
// session and checks the round trip reproduces the bytes.
func snapshotCosts(ctx context.Context, l0 *libRung, data []*sessionData, ck *checker) (encMs, decMs, size float64) {
	var enc, dec, sizes []float64
	for _, d := range data {
		ls, err := l0.get(d.name)
		if err != nil {
			ck.failf("%s: %v", d.name, err)
			continue
		}
		start := time.Now()
		b, err := ls.s.Snapshot()
		enc = append(enc, time.Since(start).Seconds())
		if err != nil {
			ck.failf("%s: snapshot: %v", d.name, err)
			continue
		}
		start = time.Now()
		s, err := crowdval.ResumeSession(b)
		dec = append(dec, time.Since(start).Seconds())
		if err != nil {
			ck.failf("%s: resume: %v", d.name, err)
			continue
		}
		again, err := s.Snapshot()
		if err != nil || string(again) != string(b) {
			ck.failf("%s: resumed session does not snapshot to the same bytes", d.name)
		}
		sizes = append(sizes, float64(len(b)))
	}
	return ms(mean(enc)), ms(mean(dec)), mean(sizes)
}

// writeSpans writes every pass's spans, one JSON object per line.
func writeSpans(path string, passes []*pass) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, p := range passes {
		for _, sp := range p.spans {
			if err := enc.Encode(sp); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
