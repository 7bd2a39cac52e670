package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"crowdval"
	"crowdval/internal/server"
)

// kind is a request kind. Every end-to-end latency metric is per kind.
type kind int

const (
	kindIngest kind = iota
	kindNext
	kindValidate
	kindGlobal
	numKinds
)

var kindNames = [numKinds]string{"ingest", "next", "validate", "global_next"}

func (k kind) String() string { return kindNames[k] }

// mix names a workload's closed-loop request pattern.
type mix int

const (
	// mixIngest streams answer batches to the client's own sessions.
	mixIngest mix = iota
	// mixExpert is an expert loop: next?k=5, validate the head with its true
	// label, and every 8th step one answer batch.
	mixExpert
	// mixMany draws a session and a request kind per call: next 40%,
	// validate 25%, ingest 25%, global next 10%.
	mixMany
)

// workload is one traffic mix with its input sizes. Every field is fixed per
// workload; only the seed varies between runs.
type workload struct {
	name string
	why  string

	sessions         int
	objects, workers int
	answersPerObject int
	// batch is the answers per ingest request; workerBatches is how many
	// consecutive batches of a session one newly arriving worker answers.
	batch         int
	workerBatches int
	mix           mix
	// clients is the number of closed-loop clients, at most nproc.
	clients int
	// nodeQuarter sizes each node's memory budget to hold about a quarter
	// of the sessions it owns, so sessions park and resume during the run.
	nodeQuarter bool
	// costBudget gives every session a monetary budget with its own θ.
	costBudget bool

	// probe lists the request kinds the mix lacks, or has too few of for
	// a tail, with the calls per client and block that measure each after
	// the window, so every workload reports every end-to-end metric.
	probe []probe

	// tail is the percentile each *_tail_ms metric reports: the highest of
	// p99, p95 and p90 that had at least ten samples beyond it in every
	// run at the benchmark's run length, fixed here from measured sample
	// counts. The host's speed drifted up to twofold between runs, and the
	// counts with it, so the slowest runs decide.
	tail [numKinds]float64
}

// probe is one post-window probe phase: blocks consecutive blocks of calls
// per client each. Its metrics are medians over the blocks' percentiles, so
// a scheduling burst that lands in one block does not set the figure.
type probe struct {
	kind   kind
	calls  int // per client and block
	blocks int
}

// ladderProbeDivisor shortens every probe in the passes of the traced
// ladder, which replay the stream seven times.
const ladderProbeDivisor = 5

const (
	nextK   = 5
	globalK = 10
	// candidateLimit bounds the objects scored per selection.
	candidateLimit = 64
)

var workloads = []*workload{
	{
		name:     "ingest_large",
		why:      "one client streams 100-answer batches into 2 sessions of 50000x500: delta i-EM aggregation dominates, guidance idle (memo-hit selections probed after)",
		sessions: 2, objects: 50000, workers: 500, answersPerObject: 5,
		batch: 100, workerBatches: 5,
		mix: mixIngest, clients: 1,
		probe: []probe{{kindNext, 180, 120}, {kindGlobal, 180, 120}, {kindValidate, 100, 5}},
		// 950 to 1700 ingests per run: p99 had nine beyond it in the
		// slowest run.
		tail: [numKinds]float64{95, 90, 90, 90},
	},
	{
		name:     "expert_loop",
		why:      "one expert on 2 sessions of 20000x300: next then validate, every 8th step 100 answers; each selection follows a mutation, so the memo never hits",
		sessions: 2, objects: 20000, workers: 300, answersPerObject: 5,
		batch: 100, workerBatches: 5,
		mix: mixExpert, clients: 1,
		// About 40 ingests per run are too few for a tail, so ingests
		// are probed too; 290 to 400 selections and validations leave
		// 14 to 20 beyond p95.
		probe: []probe{{kindGlobal, 180, 60}, {kindIngest, 100, 7}},
		tail:  [numKinds]float64{90, 95, 95, 90},
	},
	{
		name:     "many_sessions",
		why:      "2 clients on 32 budgeted 2000x100 sessions, 4x each node's memory budget: park/resume, WAL, JSON and router hops dominate; memo hits",
		sessions: 32, objects: 2000, workers: 100, answersPerObject: 5,
		batch: 20, workerBatches: 5,
		mix: mixMany, clients: 2,
		nodeQuarter: true,
		costBudget:  true,
		// 990 to 1320 selections per run (p99: nine beyond in the slowest
		// run), 630 to 790 validations and ingests, 250 to 350 global
		// reads (p95: 12 to 17 beyond).
		tail: [numKinds]float64{95, 95, 95, 95},
	},
}

func (w *workload) mixName() string {
	return [...]string{"ingest stream", "expert loop", "next 40% / validate 25% / ingest 25% / global next 10%"}[w.mix]
}

func (w *workload) probeNames() map[string][2]int {
	out := map[string][2]int{}
	for _, pr := range w.probe {
		out[pr.kind.String()] = [2]int{pr.blocks, pr.calls}
	}
	return out
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// sessionData is the immutable input of one session: its crowd, truth,
// options and the pre-encoded create request.
type sessionData struct {
	idx     int
	name    string
	owner   int // client index
	dataset *crowdval.Dataset
	config  server.SessionConfig
	theta   float64
	// createBody is the JSON body of POST /v1/sessions (sparse form).
	createBody []byte
	// streamSeed seeds the session's answer stream and validation fallback.
	streamSeed int64
}

// options mirrors the serving tier's mapping of config onto library options,
// so library-level rungs build exactly the sessions the HTTP rungs create.
func (d *sessionData) options() []crowdval.Option {
	c := d.config
	opts := []crowdval.Option{
		crowdval.WithStrategy(crowdval.StrategyName(c.Strategy)),
		crowdval.WithCandidateLimit(c.CandidateLimit),
		crowdval.WithSeed(c.Seed),
		crowdval.WithDeltaIngest(),
		crowdval.WithDeltaScoring(),
	}
	if c.CostBudget > 0 {
		opts = append(opts, crowdval.WithCostBudget(crowdval.CostTracker{Theta: c.CostTheta, Budget: c.CostBudget}))
	}
	return opts
}

// makeSessions generates every session's input from the seed. Names are
// supplied by the caller (the fabric rung balances them over its nodes).
func makeSessions(w *workload, seed int64, names []string, clients int) ([]*sessionData, error) {
	rnd := rand.New(rand.NewSource(seed))
	out := make([]*sessionData, w.sessions)
	for i := range out {
		d, err := crowdval.GenerateCrowd(crowdval.CrowdConfig{
			NumObjects: w.objects, NumWorkers: w.workers, NumLabels: 2,
			AnswersPerObject: w.answersPerObject,
			// Capable workers and spammers, so the truth is recoverable
			// and precision responds to guidance.
			Mix:            crowdval.WorkerMix{Normal: 0.6, RandomSpammer: 0.2, UniformSpammer: 0.2},
			NormalAccuracy: 0.85,
			Seed:           rnd.Int63(),
		})
		if err != nil {
			return nil, fmt.Errorf("generating crowd %d: %w", i, err)
		}
		cfg := server.SessionConfig{
			Strategy:       string(crowdval.StrategyUncertainty),
			CandidateLimit: candidateLimit,
			Seed:           1 + rnd.Int63n(1<<30),
			Delta:          true,
			DeltaScoring:   true,
		}
		theta := crowdval.DefaultExpertCrowdCostRatio
		if w.costBudget {
			// Distinct θ per session makes the global ranking's cost
			// normalisation matter; the budget affords far more
			// validations than any run makes, so none is refused.
			cfg.CostTheta = float64(8 + i%7)
			cfg.CostBudget = cfg.CostTheta * 1e6
			theta = cfg.CostTheta
		}
		sd := &sessionData{
			idx: i, name: names[i], owner: i % clients,
			dataset: d, config: cfg, theta: theta,
			streamSeed: rnd.Int63(),
		}
		if sd.createBody, err = createBody(sd); err != nil {
			return nil, err
		}
		out[i] = sd
	}
	return out, nil
}

func createBody(d *sessionData) ([]byte, error) {
	a := d.dataset.Answers
	req := server.CreateSessionRequest{
		Name: d.name, Objects: a.NumObjects(), Workers: a.NumWorkers(), NumLabels: a.NumLabels(),
		Options: d.config,
	}
	req.Answers = make([]server.AnswerJSON, 0, a.AnswerCount())
	for o := 0; o < a.NumObjects(); o++ {
		for _, wa := range a.ObjectView(o) {
			req.Answers = append(req.Answers, server.AnswerJSON{Object: o, Worker: wa.Worker, Label: int(wa.Label)})
		}
	}
	return json.Marshal(req)
}

// call is one request a client makes.
type call struct {
	kind    kind
	session *sessionState // nil for a global next
	k       int
	answers []crowdval.Answer
	object  int
	label   crowdval.Label
	probe   bool
}

// opRecord is one executed request and what it returned.
type opRecord struct {
	call
	body    []byte
	err     error
	latency float64 // seconds
	window  bool    // issued inside the measured window
	block   int     // probe block
}

// sessionState is one session's generator state during one run. Only the
// owning client touches it, so the session's operation order is fixed.
type sessionState struct {
	data   *sessionData
	rnd    *rand.Rand
	batch  int // answer batches generated so far
	acc    float64
	lastHd int // head of the last served ranking, -1 when none
	valid  map[int]bool
	order  []int // fallback validation order
	pos    int
	ops    []*opRecord
}

func newSessionState(d *sessionData) *sessionState {
	rnd := rand.New(rand.NewSource(d.streamSeed))
	return &sessionState{
		data: d, rnd: rnd, lastHd: -1,
		valid: make(map[int]bool),
		order: rnd.Perm(d.dataset.Answers.NumObjects()),
	}
}

// nextBatch draws the session's next answer batch: a newly arrived worker
// answers random objects with a per-worker accuracy.
func (s *sessionState) nextBatch(w *workload) []crowdval.Answer {
	if s.batch%w.workerBatches == 0 {
		s.acc = []float64{0.9, 0.75, 0.6, 0.5}[s.rnd.Intn(4)]
	}
	worker := s.data.dataset.Answers.NumWorkers() + s.batch/w.workerBatches
	s.batch++
	truth := s.data.dataset.Truth
	out := make([]crowdval.Answer, w.batch)
	for i := range out {
		o := s.rnd.Intn(len(truth))
		l := truth[o]
		if s.rnd.Float64() >= s.acc {
			l = 1 - l
		}
		out[i] = crowdval.Answer{Object: o, Worker: worker, Label: l}
	}
	return out
}

// validationTarget is the head of the last served ranking when it is still
// unvalidated, else the next unvalidated object of a seeded order.
func (s *sessionState) validationTarget() int {
	if s.lastHd >= 0 && !s.valid[s.lastHd] {
		return s.lastHd
	}
	for s.valid[s.order[s.pos]] {
		s.pos++
	}
	return s.order[s.pos]
}

// client is one closed-loop caller owning a fixed set of sessions.
type client struct {
	id       int
	w        *workload
	rnd      *rand.Rand
	sessions []*sessionState
	globals  []*opRecord
	step     int
	stage    int
}

func newClients(w *workload, seed int64, data []*sessionData, n int) ([]*client, []*sessionState) {
	clients := make([]*client, n)
	for i := range clients {
		clients[i] = &client{id: i, w: w, rnd: rand.New(rand.NewSource(seed*7919 + int64(i)))}
	}
	states := make([]*sessionState, len(data))
	for i, d := range data {
		states[i] = newSessionState(d)
		c := clients[d.owner]
		c.sessions = append(c.sessions, states[i])
	}
	return clients, states
}

// nextCall is the client's next request in the workload's mix.
func (c *client) nextCall() call {
	switch c.w.mix {
	case mixIngest:
		s := c.sessions[c.step%len(c.sessions)]
		c.step++
		return call{kind: kindIngest, session: s, answers: s.nextBatch(c.w)}
	case mixExpert:
		s := c.sessions[c.step%len(c.sessions)]
		switch c.stage {
		case 0:
			c.stage = 1
			return call{kind: kindNext, session: s, k: nextK}
		case 1:
			if c.step%8 == 7 {
				c.stage = 2
			} else {
				c.stage = 0
				c.step++
			}
			return c.validate(s)
		default:
			c.stage = 0
			c.step++
			return call{kind: kindIngest, session: s, answers: s.nextBatch(c.w)}
		}
	default:
		s := c.sessions[c.rnd.Intn(len(c.sessions))]
		switch r := c.rnd.Intn(100); {
		case r < 40:
			return call{kind: kindNext, session: s, k: nextK}
		case r < 65:
			return c.validate(s)
		case r < 90:
			return call{kind: kindIngest, session: s, answers: s.nextBatch(c.w)}
		default:
			return call{kind: kindGlobal, k: globalK}
		}
	}
}

// probeCall is the i-th call of a probe phase of kind k.
func (c *client) probeCall(k kind, i int) call {
	s := c.sessions[i%len(c.sessions)]
	switch k {
	case kindNext:
		return call{kind: kindNext, session: s, k: nextK, probe: true}
	case kindValidate:
		cl := c.validate(s)
		cl.probe = true
		return cl
	case kindIngest:
		return call{kind: kindIngest, session: s, answers: s.nextBatch(c.w), probe: true}
	default:
		return call{kind: kindGlobal, k: globalK, probe: true}
	}
}

func (c *client) validate(s *sessionState) call {
	o := s.validationTarget()
	return call{kind: kindValidate, session: s, object: o, label: s.data.dataset.Truth[o]}
}

// observe folds a response into the generator state: served rankings set
// the head the next validation submits, submitted objects are never
// submitted again.
func (c *client) observe(rec *opRecord) {
	if rec.session == nil {
		c.globals = append(c.globals, rec)
		return
	}
	s := rec.session
	s.ops = append(s.ops, rec)
	switch rec.kind {
	case kindNext:
		s.lastHd = -1
		var resp server.NextResponse
		if rec.err == nil && json.Unmarshal(rec.body, &resp) == nil {
			s.lastHd = resp.Object
		}
	case kindValidate:
		s.valid[rec.object] = true
	}
}
