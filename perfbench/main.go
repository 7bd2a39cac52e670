// Command perfbench is the layered benchmark of the crowd-validation
// service. It generates every input from a seed, serves it through a
// cluster.Router in front of two cluster.Nodes (each a server.Manager with
// an interval-synced WAL) on loopback, drives one workload with closed-loop
// clients for a fixed time, and checks every output against a serial replay
// through crowdval.Session.
//
//	perfbench -root <repo> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the last line of standard output is a JSON object with the
// end-to-end metrics; with --trace 1 the workload's operation stream is
// replayed once per rung (L0 crowdval.Session, L1 Manager, L2 Manager+WAL,
// L3 one HTTP node, L4 router and two nodes) and the object holds the
// per-layer metrics. The line before it is the run record.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"crowdval"
)

const (
	// setupReps is how often the end-to-end run creates and warms its
	// sessions; setup_s is the median.
	setupReps = 3
	// runLimit bounds one invocation's requests.
	runLimit = 170 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is one invocation's configuration.
type env struct {
	root    string
	dir     string // scratch directory for park and WAL files
	w       *workload
	seed    int64
	seconds float64
	clients int
}

func main() {
	var (
		root     = flag.String("root", ".", "repository root; scratch files go under <root>/.bench_build/perfbench")
		name     = flag.String("workload", "", "workload to run")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 10, "measured seconds")
		traceOpt = flag.Int("trace", 0, "1 runs the traced ladder and reports per-layer metrics")
	)
	flag.Parse()
	if err := run(*root, *name, *seed, *seconds, *traceOpt == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(root, name string, seed int64, seconds float64, traced bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	base := filepath.Join(root, ".bench_build", "perfbench")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e := &env{root: root, dir: dir, w: w, seed: seed, seconds: seconds, clients: min(w.clients, runtime.NumCPU())}
	// Requests still outstanding near the run's time limit fail instead
	// of holding the process past it.
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()

	var (
		res    *result
		record map[string]any
	)
	if traced {
		res, record, err = runTraced(ctx, e, base)
	} else {
		res, record, err = runEndToEnd(ctx, e)
	}
	if err != nil {
		return err
	}
	record["run"] = runRecord(e, traced)
	line, err := json.Marshal(record)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// prepare opens the fabric, names the sessions against its ring and
// generates their inputs.
func prepare(e *env) (*fabric, []*sessionData, error) {
	fab, err := listenFabric()
	if err != nil {
		return nil, nil, err
	}
	data, err := makeSessions(e.w, e.seed, fab.names(e.w), e.clients)
	if err != nil {
		fab.closeListeners()
		return nil, nil, err
	}
	return fab, data, nil
}

// memoryBudget is the budget holding about a quarter of n sessions of the
// workload, or 0 (unlimited) for workloads that fit in memory.
func memoryBudget(w *workload, data []*sessionData, n int) (int64, error) {
	if !w.nodeQuarter {
		return 0, nil
	}
	answers, err := answerSet(data[0])
	if err != nil {
		return 0, err
	}
	s, err := crowdval.NewSession(answers, data[0].options()...)
	if err != nil {
		return 0, err
	}
	return s.MemoryEstimate() * int64(n) / 4, nil
}

func nodeBudgets(w *workload, data []*sessionData) ([]int64, error) {
	out := make([]int64, fabricNodes)
	for i := range out {
		owned := 0
		for j := range data {
			if j%fabricNodes == i {
				owned++
			}
		}
		b, err := memoryBudget(w, data, owned)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// runEndToEnd is the untraced run through the full stack.
func runEndToEnd(ctx context.Context, e *env) (*result, map[string]any, error) {
	phases := &phaseClock{last: time.Now(), secs: map[string]float64{}}
	fab, data, err := prepare(e)
	if err != nil {
		return nil, nil, err
	}
	budgets, err := nodeBudgets(e.w, data)
	if err != nil {
		fab.closeListeners()
		return nil, nil, err
	}
	l4, err := fab.start(filepath.Join(e.dir, "l4"), budgets)
	if err != nil {
		return nil, nil, err
	}
	defer l4.close()
	phases.lap("prepare")

	var (
		p         *pass
		setups    []float64
		attempted int64
		failed    int64
	)
	for rep := 0; rep < setupReps; rep++ {
		if p != nil {
			if err := p.teardown(ctx); err != nil {
				return nil, nil, err
			}
			attempted += p.attempted.Load()
			failed += p.failed.Load()
		}
		p = newPass("L4", l4, e.w, e.seed, data, e.clients, false)
		if err := p.setup(ctx); err != nil {
			return nil, nil, err
		}
		setups = append(setups, p.setupSeconds)
	}
	phases.lap("setup")
	p.window(ctx, time.Duration(e.seconds*float64(time.Second)), nil)
	phases.lap("window")
	p.probes(ctx)
	phases.lap("probes")
	p.finish(ctx)
	rss := peakRSSMB()
	attempted += p.attempted.Load()
	failed += p.failed.Load()

	ck := &checker{}
	ref := replay(ctx, p, replayWorkers(), ck)
	checkFinal(ctx, p, ref, ck)
	phases.lap("check")
	for _, msg := range ck.problems {
		fmt.Fprintln(os.Stderr, "perfbench: output check:", msg)
	}

	m := map[string]metric{
		"setup_s":     {median(setups), "s"},
		"precision":   {meanPrecision(ref, data), "ratio"},
		"peak_rss_mb": {rss, "MB"},
	}
	var ok, answers int
	for _, rec := range p.ops() {
		if rec.window && rec.err == nil {
			ok++
			if rec.kind == kindIngest {
				answers += len(rec.answers)
			}
		}
	}
	m["ops_per_s"] = metric{float64(ok) / p.windowSeconds, "1/s"}
	m["ingest_answers_per_s"] = metric{float64(answers) / p.windowSeconds, "1/s"}
	latency := map[string]any{}
	for k := kind(0); k < numKinds; k++ {
		blocks := latencies(p, k)
		tail := e.w.tail[k]
		m[k.String()+"_p50_ms"] = metric{ms(blockPercentile(blocks, 50)), "ms"}
		m[k.String()+"_tail_ms"] = metric{ms(blockPercentile(blocks, tail)), "ms"}
		n := len(blocks[0])
		latency[k.String()] = map[string]any{
			"blocks": len(blocks), "samples_per_block": n, "tail_percentile": tail,
			"beyond_tail_per_block": n - rank(n, tail),
			"source":                sourceOf(e.w, k),
		}
	}
	record := map[string]any{
		"error_rate": metric{float64(failed) / float64(attempted), "ratio"},
		"latency":    latency,
		"setups_s":   setups,
		"window_s":   p.windowSeconds,
		"problems":   len(ck.problems),
		"phases_s":   phases.secs,
	}
	return &result{Correct: ck.ok() && failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, record, nil
}

// phaseClock records the wall time of each phase of a run.
type phaseClock struct {
	last time.Time
	secs map[string]float64
}

func (c *phaseClock) lap(name string) {
	now := time.Now()
	c.secs[name] += now.Sub(c.last).Seconds()
	c.last = now
}

// sourceOf says whether a kind's latencies come from the measured window or
// from the post-window probe.
func sourceOf(w *workload, k kind) string {
	for _, pr := range w.probe {
		if pr.kind == k {
			return "probe"
		}
	}
	return "window"
}

// latencies returns the kind's latencies in seconds, by probe block: from
// the window (one block), or from the probe for kinds the mix lacks. A
// failed request counts as missing every latency limit.
func latencies(p *pass, k kind) [][]float64 {
	probe := sourceOf(p.w, k) == "probe"
	blocks := [][]float64{nil}
	for _, rec := range p.ops() {
		if rec.kind != k || probe && !rec.probe || !probe && !rec.window {
			continue
		}
		for len(blocks) <= rec.block {
			blocks = append(blocks, nil)
		}
		if rec.err != nil {
			blocks[rec.block] = append(blocks[rec.block], math.Inf(1))
		} else {
			blocks[rec.block] = append(blocks[rec.block], rec.latency)
		}
	}
	return blocks
}

// blockPercentile is the median over blocks of each block's percentile.
func blockPercentile(blocks [][]float64, q float64) float64 {
	per := make([]float64, len(blocks))
	for i, b := range blocks {
		per[i] = percentile(b, q)
	}
	return median(per)
}

// rank is the 1-based nearest rank of percentile q among n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q / 100 * float64(n)))
	return max(1, min(n, r))
}

// percentile is the nearest-rank percentile.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)-1]
}

// ms converts seconds to milliseconds. A failed request's infinite latency
// becomes the largest float, which JSON can carry.
func ms(seconds float64) float64 { return math.Min(seconds*1e3, math.MaxFloat64) }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// meanPrecision is the paper's quality measure: precision of each final
// Result() against the simulated truth, averaged over sessions.
func meanPrecision(ref *libRung, data []*sessionData) float64 {
	var sum float64
	for _, d := range data {
		ls, err := ref.get(d.name)
		if err != nil {
			return math.NaN()
		}
		sum += crowdval.Precision(ls.s.Result(), d.dataset.Truth)
	}
	return sum / float64(len(data))
}
