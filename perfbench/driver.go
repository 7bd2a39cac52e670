package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// pass is one run of a workload's operation stream against one rung.
type pass struct {
	name  string
	rung  rung
	w     *workload
	begin time.Time

	clients []*client
	states  []*sessionState

	setupSeconds  float64   // wall time to create and warm every session
	createSeconds []float64 // per-session create latency, by session index
	windowSeconds float64
	windowCalls   []int     // per client
	busy          []float64 // per client: seconds spent in window and probe phases

	snapshots   [][]byte // final GET snapshot, by session index
	finalGlobal []byte   // final GET /v1/next?parked=1

	attempted, failed atomic.Int64
	spans             []span
	spanMu            sync.Mutex
	traced            bool
	ladder            bool // a pass of the traced ladder: shorter probes
}

// span is one timed call, kept in memory and written out at the end. Calls
// of one operation share an id across rungs: the client and its call index.
type span struct {
	Rung    string  `json:"rung"`
	ID      string  `json:"id"`
	Kind    string  `json:"kind"`
	Session string  `json:"session,omitempty"`
	StartMs float64 `json:"start_ms"`
	DurMs   float64 `json:"dur_ms"`
	OK      bool    `json:"ok"`
	Probe   bool    `json:"probe,omitempty"`
}

func newPass(name string, r rung, w *workload, seed int64, data []*sessionData, nclients int, traced bool) *pass {
	p := &pass{name: name, rung: r, w: w, traced: traced, begin: time.Now()}
	p.clients, p.states = newClients(w, seed, data, nclients)
	p.createSeconds = make([]float64, len(data))
	p.windowCalls = make([]int, nclients)
	p.busy = make([]float64, nclients)
	return p
}

// eachClient runs fn once per client concurrently and waits for all.
func (p *pass) eachClient(fn func(c *client) error) error {
	errs := make([]error, len(p.clients))
	var wg sync.WaitGroup
	for i, c := range p.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(c)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// exec issues one call and records it. A failed call is counted and kept;
// nothing is retried.
func (p *pass) exec(ctx context.Context, c *client, cl call, window bool, seq int) *opRecord {
	start := time.Since(p.begin)
	body, secs, err := p.rung.do(ctx, &cl, false)
	rec := &opRecord{call: cl, body: body, err: err, latency: secs, window: window}
	p.attempted.Add(1)
	if err != nil {
		p.failed.Add(1)
	}
	c.observe(rec)
	if p.traced {
		id := fmt.Sprintf("c%d.%d", c.id, seq)
		if seq < 0 {
			id = fmt.Sprintf("c%d.warm", c.id)
		}
		sp := span{
			Rung: p.name, ID: id, Kind: cl.kind.String(),
			StartMs: float64(start) / 1e6, DurMs: secs * 1e3, OK: err == nil, Probe: cl.probe,
		}
		if cl.session != nil {
			sp.Session = cl.session.data.name
		}
		p.spanMu.Lock()
		p.spans = append(p.spans, sp)
		p.spanMu.Unlock()
	}
	return rec
}

// setup creates every session (each client its own, clients in parallel)
// and warms each with one selection.
func (p *pass) setup(ctx context.Context) error {
	// Every set-up of one process starts from the same collected heap, so
	// garbage of an earlier pass is not collected on this one's time.
	runtime.GC()
	start := time.Now()
	err := p.eachClient(func(c *client) error {
		for _, s := range c.sessions {
			p.attempted.Add(1)
			el, err := p.rung.create(ctx, s.data)
			if err != nil {
				p.failed.Add(1)
				return fmt.Errorf("%s: creating %s: %w", p.name, s.data.name, err)
			}
			p.createSeconds[s.data.idx] = el
		}
		for _, s := range c.sessions {
			rec := p.exec(ctx, c, call{kind: kindNext, session: s, k: nextK}, false, -1)
			if rec.err != nil {
				return fmt.Errorf("%s: warming %s: %w", p.name, s.data.name, rec.err)
			}
		}
		return nil
	})
	p.setupSeconds = time.Since(start).Seconds()
	return err
}

// teardown deletes every session, so the rung can set up again.
func (p *pass) teardown(ctx context.Context) error {
	for _, s := range p.states {
		p.attempted.Add(1)
		if err := p.rung.remove(ctx, s.data.name); err != nil {
			p.failed.Add(1)
			return fmt.Errorf("%s: deleting %s: %w", p.name, s.data.name, err)
		}
	}
	return nil
}

// window runs the closed loop: for the given duration when calls is nil,
// otherwise exactly calls[c] requests per client.
func (p *pass) window(ctx context.Context, d time.Duration, calls []int) {
	start := time.Now()
	deadline := start.Add(d)
	_ = p.eachClient(func(c *client) error {
		t0 := time.Now()
		n := 0
		for ; calls == nil && time.Now().Before(deadline) || calls != nil && n < calls[c.id]; n++ {
			p.exec(ctx, c, c.nextCall(), true, n)
		}
		p.windowCalls[c.id] = n
		p.busy[c.id] += time.Since(t0).Seconds()
		return nil
	})
	p.windowSeconds = time.Since(start).Seconds()
}

// probes measures the request kinds the mix lacks, or has too few of for a
// tail, on the state the window left, one client at a time: lock-stepped clients would make a probe's
// figures depend on how their calls happen to overlap. The read-only kinds
// (next, global next) alternate block by block, so each spans the whole read
// phase and a slow spell of the host weighs on every kind alike; kinds that
// change state (validate, ingest) follow, one at a time.
func (p *pass) probes(ctx context.Context) {
	seq := make([]int, len(p.clients))
	copy(seq, p.windowCalls)
	var reads []probe
	for _, pr := range p.w.probe {
		if pr.kind == kindNext || pr.kind == kindGlobal {
			reads = append(reads, pr)
		}
	}
	p.probePhase(ctx, reads, seq)
	for _, pr := range p.w.probe {
		if pr.kind != kindNext && pr.kind != kindGlobal {
			p.probePhase(ctx, []probe{pr}, seq)
		}
	}
}

// probePhase runs the probes' blocks, block b of every probe before block
// b+1 of any.
func (p *pass) probePhase(ctx context.Context, prs []probe, seq []int) {
	if len(prs) == 0 {
		return
	}
	// Each phase starts from a collected heap, so whether the previous
	// phase's garbage is collected during a probe of sub-millisecond calls
	// does not decide its tail.
	runtime.GC()
	blocks := 0
	for _, pr := range prs {
		blocks = max(blocks, p.probeBlocks(pr))
	}
	for b := 0; b < blocks; b++ {
		for _, pr := range prs {
			if b >= p.probeBlocks(pr) {
				continue
			}
			for _, c := range p.clients {
				t0 := time.Now()
				for i := 0; i < pr.calls; i++ {
					rec := p.exec(ctx, c, c.probeCall(pr.kind, b*pr.calls+i), false, seq[c.id])
					rec.block = b
					seq[c.id]++
				}
				p.busy[c.id] += time.Since(t0).Seconds()
			}
		}
	}
}

// probeBlocks is the number of blocks a probe runs in this pass: all of them
// in the end-to-end run, a fraction in the passes of the traced ladder,
// whose per-layer means need no steady tail.
func (p *pass) probeBlocks(pr probe) int {
	if p.ladder {
		return max(1, pr.blocks/ladderProbeDivisor)
	}
	return pr.blocks
}

// finish downloads every session's snapshot and the final global ranking
// over all sessions, parked ones included, after all traffic stopped.
func (p *pass) finish(ctx context.Context) {
	p.snapshots = make([][]byte, len(p.states))
	for i, s := range p.states {
		p.attempted.Add(1)
		b, err := p.rung.snapshot(ctx, s.data.name)
		if err != nil {
			p.failed.Add(1)
			continue
		}
		p.snapshots[i] = b
	}
	p.attempted.Add(1)
	b, _, err := p.rung.do(ctx, &call{kind: kindGlobal, k: globalK}, true)
	if err != nil {
		p.failed.Add(1)
		return
	}
	p.finalGlobal = b
}

// run is one full pass: set up, replay or time the window, probe, finish.
func (p *pass) run(ctx context.Context, d time.Duration, calls []int) error {
	if err := p.setup(ctx); err != nil {
		return err
	}
	p.window(ctx, d, calls)
	p.probes(ctx)
	p.finish(ctx)
	return nil
}

// ops returns every recorded session operation and global read.
func (p *pass) ops() []*opRecord {
	var out []*opRecord
	for _, s := range p.states {
		out = append(out, s.ops...)
	}
	for _, c := range p.clients {
		out = append(out, c.globals...)
	}
	return out
}
