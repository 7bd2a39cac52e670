package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"

	"crowdval/internal/server"
)

// checker collects output mismatches.
type checker struct {
	mu       sync.Mutex
	problems []string
}

func (ck *checker) failf(format string, args ...any) {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	ck.problems = append(ck.problems, fmt.Sprintf(format, args...))
}

func (ck *checker) ok() bool { return len(ck.problems) == 0 }

// replay is the serial reference: every session of the pass is rebuilt
// from its input through crowdval.Session and fed the session's recorded
// operations in order. Each served ranking, StepInfo and ingest count must
// equal the reference's byte for byte. It returns the reference rung, whose
// sessions hold the final reference state.
func replay(ctx context.Context, p *pass, workers int, ck *checker) *libRung {
	ref := newLibRung()
	next := make(chan *sessionState)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range next {
				replaySession(ctx, ref, s, ck)
			}
		}()
	}
	for _, s := range p.states {
		next <- s
	}
	close(next)
	wg.Wait()
	return ref
}

// replayWorkers is how many sessions the reference replays at once: one per
// core, at most two.
func replayWorkers() int { return min(2, runtime.NumCPU()) }

func replaySession(ctx context.Context, ref *libRung, s *sessionState, ck *checker) {
	name := s.data.name
	if _, err := ref.create(ctx, s.data); err != nil {
		ck.failf("%s: reference create: %v", name, err)
		return
	}
	for i, rec := range s.ops {
		if rec.err != nil {
			continue // a failed request applied nothing
		}
		body, _, err := ref.do(ctx, &rec.call, false)
		if err != nil {
			ck.failf("%s op %d (%s): served %q, reference failed: %v", name, i, rec.kind, rec.body, err)
			return
		}
		if !bytes.Equal(body, rec.body) {
			ck.failf("%s op %d (%s): served %q, reference %q", name, i, rec.kind, rec.body, body)
			return
		}
	}
}

// checkFinal compares the pass's final snapshots and final global ranking
// with the reference sessions, and checks that every mid-run global ranking
// is well-formed.
func checkFinal(ctx context.Context, p *pass, ref *libRung, ck *checker) {
	for i, s := range p.states {
		want, err := ref.snapshot(ctx, s.data.name)
		if err != nil {
			ck.failf("%s: reference snapshot: %v", s.data.name, err)
			continue
		}
		if !bytes.Equal(p.snapshots[i], want) {
			ck.failf("%s: final snapshot differs from the serial replay (%d vs %d bytes)", s.data.name, len(p.snapshots[i]), len(want))
		}
	}
	want, _, err := ref.do(ctx, &call{kind: kindGlobal, k: globalK}, true)
	if err != nil {
		ck.failf("reference global next: %v", err)
	} else if !bytes.Equal(p.finalGlobal, want) {
		ck.failf("final global next: served %q, reference %q", p.finalGlobal, want)
	}
	for _, c := range p.clients {
		for _, rec := range c.globals {
			if rec.err == nil {
				if err := wellFormedGlobal(rec.body, rec.k, p.states); err != nil {
					ck.failf("%s global next: %v", p.name, err)
				}
			}
		}
	}
}

// sameOutputs requires a pass to have served exactly what the reference
// pass served: every session operation, snapshot and the final global
// ranking, byte for byte.
func sameOutputs(ref, p *pass, ck *checker) {
	for i, s := range p.states {
		r := ref.states[i]
		if len(s.ops) != len(r.ops) {
			ck.failf("%s %s: %d operations, reference %d", p.name, s.data.name, len(s.ops), len(r.ops))
			continue
		}
		for j, rec := range s.ops {
			if (rec.err == nil) != (r.ops[j].err == nil) || !bytes.Equal(rec.body, r.ops[j].body) {
				ck.failf("%s %s op %d (%s): served %q (err %v), reference %q", p.name, s.data.name, j, rec.kind, rec.body, rec.err, r.ops[j].body)
				break
			}
		}
		if !bytes.Equal(p.snapshots[i], ref.snapshots[i]) {
			ck.failf("%s %s: final snapshot differs from the reference", p.name, s.data.name)
		}
	}
	if !bytes.Equal(p.finalGlobal, ref.finalGlobal) {
		ck.failf("%s: final global next %q, reference %q", p.name, p.finalGlobal, ref.finalGlobal)
	}
	for _, c := range p.clients {
		for _, rec := range c.globals {
			if rec.err == nil {
				if err := wellFormedGlobal(rec.body, rec.k, p.states); err != nil {
					ck.failf("%s global next: %v", p.name, err)
				}
			}
		}
	}
}

// wellFormedGlobal checks a global ranking whose exact content depends on
// how clients interleaved: at most k known (session, object) pairs, no
// duplicates, gain per cost equal to gain over the session's θ, and sorted
// by the global total order.
func wellFormedGlobal(body []byte, k int, states []*sessionState) error {
	var resp server.GlobalNextResponse
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&resp); err != nil {
		return fmt.Errorf("decoding %q: %w", body, err)
	}
	if len(resp.Candidates) == 0 || len(resp.Candidates) > k {
		return fmt.Errorf("%d candidates for k=%d", len(resp.Candidates), k)
	}
	byName := make(map[string]*sessionData, len(states))
	for _, s := range states {
		byName[s.data.name] = s.data
	}
	type key struct {
		s string
		o int
	}
	seen := make(map[key]bool)
	for i, c := range resp.Candidates {
		d, ok := byName[c.Session]
		if !ok {
			return fmt.Errorf("unknown session %q", c.Session)
		}
		if c.Object < 0 || c.Object >= d.dataset.Answers.NumObjects() {
			return fmt.Errorf("object %d out of range in %s", c.Object, c.Session)
		}
		if seen[key{c.Session, c.Object}] {
			return fmt.Errorf("duplicate candidate %s/%d", c.Session, c.Object)
		}
		seen[key{c.Session, c.Object}] = true
		if c.GainPerCost != c.Gain/d.theta {
			return fmt.Errorf("%s/%d: gain per cost %v, want %v/%v", c.Session, c.Object, c.GainPerCost, c.Gain, d.theta)
		}
		if i > 0 {
			prev := resp.Candidates[i-1]
			if prev.GainPerCost < c.GainPerCost ||
				prev.GainPerCost == c.GainPerCost && (prev.Session > c.Session || prev.Session == c.Session && prev.Object > c.Object) {
				return fmt.Errorf("candidates %d and %d out of order", i-1, i)
			}
		}
	}
	return nil
}
