package main

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"crowdval"
)

// tiny is a small many-sessions mix: every request kind, parking under a
// quarter-sized memory budget, and cost budgets.
var tiny = &workload{
	name: "tiny", sessions: 4, objects: 200, workers: 20, answersPerObject: 5,
	batch: 10, workerBatches: 2, mix: mixMany, clients: 2, nodeQuarter: true, costBudget: true,
	probe: []probe{{kindValidate, 3, 1}},
	tail:  [numKinds]float64{90, 90, 90, 90},
}

// servedPass runs the tiny stream through the router and two nodes and
// returns the pass with its session inputs.
func servedPass(t *testing.T) *pass {
	t.Helper()
	ctx := context.Background()
	e := &env{dir: t.TempDir(), w: tiny, seed: 5, clients: 2}
	fab, data, err := prepare(e)
	if err != nil {
		t.Fatal(err)
	}
	budgets, err := nodeBudgets(tiny, data)
	if err != nil {
		t.Fatal(err)
	}
	l4, err := fab.start(filepath.Join(e.dir, "l4"), budgets)
	if err != nil {
		t.Fatal(err)
	}
	defer l4.close()
	p := newPass("L4", l4, tiny, e.seed, data, e.clients, true)
	if err := p.run(ctx, time.Second, []int{40, 40}); err != nil {
		t.Fatal(err)
	}
	if n := p.failed.Load(); n != 0 {
		t.Fatalf("%d requests failed", n)
	}
	return p
}

func check(p *pass) *checker {
	ck := &checker{}
	ref := replay(context.Background(), p, 2, ck)
	checkFinal(context.Background(), p, ref, ck)
	return ck
}

func TestServedOutputsMatchSerialReplay(t *testing.T) {
	p := servedPass(t)
	if ck := check(p); !ck.ok() {
		t.Fatalf("output check failed: %v", ck.problems)
	}
	kinds := map[kind]int{}
	for _, rec := range streamOps(p) {
		kinds[rec.kind]++
	}
	for k := kind(0); k < numKinds; k++ {
		if kinds[k] == 0 {
			t.Errorf("stream has no %s request", k)
		}
	}

	// The same stream through the Manager alone, and through concurrent
	// library sessions, serves the same bytes.
	r, err := newManagerRung(t.TempDir(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	for _, lower := range []rung{r, newLibRung()} {
		q := newPass("lower", lower, tiny, 5, dataOf(p), 2, true)
		if err := q.run(context.Background(), time.Second, p.windowCalls); err != nil {
			t.Fatal(err)
		}
		ck := &checker{}
		sameOutputs(p, q, ck)
		if !ck.ok() {
			t.Fatalf("%T differs: %v", lower, ck.problems)
		}
	}
}

func dataOf(p *pass) []*sessionData {
	out := make([]*sessionData, len(p.states))
	for i, s := range p.states {
		out[i] = s.data
	}
	return out
}

// TestPerturbedReferenceFails shows the check catches a reference that
// differs from what was served, and served bytes that differ from it.
func TestPerturbedReferenceFails(t *testing.T) {
	p := servedPass(t)
	cases := []struct {
		name    string
		perturb func(p *pass)
		want    string
	}{
		{"reference crowd has one more answer", func(p *pass) {
			d := *p.states[1].data
			d.dataset = &crowdval.Dataset{Answers: d.dataset.Answers.Clone(), Truth: d.dataset.Truth}
			for w := 0; w < d.dataset.Answers.NumWorkers(); w++ {
				if d.dataset.Answers.Answer(0, w) < 0 {
					if err := d.dataset.Answers.SetAnswer(0, w, 1); err != nil {
						t.Fatal(err)
					}
					break
				}
			}
			p.states[1].data = &d
		}, "reference"},
		{"reference session scores fewer candidates", func(p *pass) {
			d := *p.states[0].data
			d.config.CandidateLimit = 4
			p.states[0].data = &d
		}, "reference"},
		{"served ranking", func(p *pass) {
			for _, rec := range p.states[2].ops {
				if rec.kind == kindNext {
					rec.body = []byte(strings.Replace(string(rec.body), `"score":`, `"score":1`, 1))
					return
				}
			}
			t.Fatal("no ranking served")
		}, "op"},
		{"served snapshot", func(p *pass) {
			p.snapshots[3] = append([]byte(nil), p.snapshots[3]...)
			p.snapshots[3][len(p.snapshots[3])/2] ^= 1
		}, "snapshot"},
		{"served global ranking", func(p *pass) {
			p.finalGlobal = []byte(strings.Replace(string(p.finalGlobal), `"object":`, `"object":1`, 1))
		}, "global"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			saved := snapshotPass(p)
			defer restorePass(p, saved)
			tc.perturb(p)
			ck := check(p)
			if ck.ok() {
				t.Fatal("perturbed check passed")
			}
			if !strings.Contains(strings.Join(ck.problems, "\n"), tc.want) {
				t.Fatalf("problems %v do not mention %q", ck.problems, tc.want)
			}
		})
	}
}

func TestMalformedGlobalRankingFails(t *testing.T) {
	p := servedPass(t)
	body := p.finalGlobal
	if err := wellFormedGlobal(body, globalK, p.states); err != nil {
		t.Fatalf("served ranking rejected: %v", err)
	}
	swapped := []byte(strings.Replace(string(body), `"gainPerCost":`, `"gainPerCost":-`, 1))
	if wellFormedGlobal(swapped, globalK, p.states) == nil {
		t.Fatal("out-of-order ranking accepted")
	}
	if wellFormedGlobal(body, 1, p.states) == nil {
		t.Fatal("ranking longer than k accepted")
	}
}

type savedPass struct {
	data      []*sessionData
	bodies    [][][]byte
	snapshots [][]byte
	global    []byte
}

func snapshotPass(p *pass) savedPass {
	s := savedPass{data: dataOf(p), snapshots: append([][]byte(nil), p.snapshots...), global: p.finalGlobal}
	for _, st := range p.states {
		var b [][]byte
		for _, rec := range st.ops {
			b = append(b, rec.body)
		}
		s.bodies = append(s.bodies, b)
	}
	return s
}

func restorePass(p *pass, s savedPass) {
	for i, st := range p.states {
		st.data = s.data[i]
		for j, rec := range st.ops {
			rec.body = s.bodies[i][j]
		}
	}
	p.snapshots = s.snapshots
	p.finalGlobal = s.global
}

func TestPercentileRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if got := percentile(xs, 90); got != 90 {
		t.Fatalf("p90 = %v, want 90", got)
	}
	if got := percentile(xs, 50); got != 50 {
		t.Fatalf("p50 = %v, want 50", got)
	}
	if n := len(xs) - rank(len(xs), 90); n != 10 {
		t.Fatalf("%d samples beyond p90, want 10", n)
	}
}
