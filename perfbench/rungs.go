package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"crowdval"
	"crowdval/internal/cluster"
	"crowdval/internal/cverr"
	"crowdval/internal/server"
	"crowdval/internal/wal"
)

// A rung is one level of the serving stack. Every rung returns the exact
// bytes the HTTP API would send, so outputs compare byte for byte across
// rungs, and times only the call into its own public entry point.
type rung interface {
	create(ctx context.Context, d *sessionData) (float64, error)
	remove(ctx context.Context, name string) error
	do(ctx context.Context, c *call, parked bool) (body []byte, seconds float64, err error)
	snapshot(ctx context.Context, name string) ([]byte, error)
	close()
}

// statusError is a non-2xx HTTP response.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// encode renders a response the way the serving tier writes it.
func encode(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of numbers and strings are encoded
	}
	return append(b, '\n')
}

func stepJSON(info crowdval.StepInfo) server.StepInfoJSON {
	return server.StepInfoJSON{
		Object: info.Object, Label: int(info.Label),
		ErrorRate: info.ErrorRate, Uncertainty: info.Uncertainty,
		FaultyWorkers:      info.FaultyWorkers,
		QuarantinedWorkers: info.QuarantinedWorkers,
		SuspectValidations: info.SuspectValidations,
	}
}

func nextJSON(ranked []crowdval.ScoredObject) []byte {
	resp := server.NextResponse{Object: ranked[0].Object, Ranking: make([]server.ScoredObjectJSON, len(ranked))}
	for i, c := range ranked {
		resp.Ranking[i] = server.ScoredObjectJSON{Object: c.Object, Score: c.Score}
	}
	return encode(resp)
}

func globalJSON(cands []crowdval.GlobalNextCandidate) []byte {
	resp := server.GlobalNextResponse{Candidates: make([]server.GlobalCandidateJSON, len(cands))}
	for i, c := range cands {
		resp.Candidates[i] = server.GlobalCandidateJSON{Session: c.Session, Object: c.Object, Gain: c.Gain, GainPerCost: c.GainPerCost}
	}
	return encode(resp)
}

// answerSet rebuilds a session's crowd exactly as the HTTP create handler
// does from the sparse request: the same dimensions, the same insert order.
func answerSet(d *sessionData) (*crowdval.AnswerSet, error) {
	a := d.dataset.Answers
	out, err := crowdval.NewAnswerSet(a.NumObjects(), a.NumWorkers(), a.NumLabels())
	if err != nil {
		return nil, err
	}
	for o := 0; o < a.NumObjects(); o++ {
		for _, wa := range a.ObjectView(o) {
			if err := out.SetAnswer(o, wa.Worker, wa.Label); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// ---- L0: crowdval.Session ----

// libCounts accumulates the session getters' counters around every call.
type libCounts struct {
	mu sync.Mutex
	n  counts
}

type counts struct {
	ingests, emIters, dIters    int
	selections, builds, patches int
	memoHits                    int
}

func (c *libCounts) get() counts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (a counts) minus(b counts) counts {
	return counts{
		ingests: a.ingests - b.ingests, emIters: a.emIters - b.emIters, dIters: a.dIters - b.dIters,
		selections: a.selections - b.selections, builds: a.builds - b.builds, patches: a.patches - b.patches,
		memoHits: a.memoHits - b.memoHits,
	}
}

type libSession struct {
	mu   sync.Mutex
	s    *crowdval.Session
	data *sessionData
}

// libRung drives crowdval.Session directly. A per-session mutex gives the
// same one-writer contract the Manager enforces; times cover only the
// session call, not the lock wait.
type libRung struct {
	mu       sync.Mutex
	sessions map[string]*libSession
	counts   libCounts
}

func newLibRung() *libRung { return &libRung{sessions: make(map[string]*libSession)} }

func (r *libRung) create(ctx context.Context, d *sessionData) (float64, error) {
	answers, err := answerSet(d)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	s, err := crowdval.NewSession(answers, d.options()...)
	el := time.Since(start).Seconds()
	if err != nil {
		return 0, err
	}
	r.mu.Lock()
	r.sessions[d.name] = &libSession{s: s, data: d}
	r.mu.Unlock()
	return el, nil
}

func (r *libRung) remove(_ context.Context, name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.sessions, name)
	return nil
}

func (r *libRung) get(name string) (*libSession, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ls, ok := r.sessions[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", cverr.ErrSessionNotFound, name)
	}
	return ls, nil
}

func (r *libRung) do(ctx context.Context, c *call, _ bool) ([]byte, float64, error) {
	if c.kind == kindGlobal {
		return r.global(ctx, c.k)
	}
	ls, err := r.get(c.session.data.name)
	if err != nil {
		return nil, 0, err
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	s := ls.s
	switch c.kind {
	case kindIngest:
		em, dl := s.TotalEMIterations(), s.TotalDeltaIterations()
		start := time.Now()
		err := s.AddAnswers(ctx, c.answers)
		el := time.Since(start).Seconds()
		if err != nil {
			return nil, el, err
		}
		r.counts.mu.Lock()
		r.counts.n.ingests++
		r.counts.n.emIters += s.TotalEMIterations() - em
		r.counts.n.dIters += s.TotalDeltaIterations() - dl
		r.counts.mu.Unlock()
		return encode(server.IngestResponse{Ingested: len(c.answers), AnswerCount: s.AnswerCount()}), el, nil
	case kindNext:
		var ranked []crowdval.ScoredObject
		el, err := r.selection(s, func() (err error) {
			ranked, err = s.NextObjectsContext(ctx, c.k)
			return err
		})
		if err != nil {
			return nil, el, err
		}
		return nextJSON(ranked), el, nil
	default:
		start := time.Now()
		info, err := s.SubmitValidationContext(ctx, c.object, c.label)
		el := time.Since(start).Seconds()
		if err != nil {
			return nil, el, err
		}
		return encode(server.SubmitResponse{Steps: []server.StepInfoJSON{stepJSON(info)}}), el, nil
	}
}

// selection times one NextObjects call and counts its index work. A call
// that neither builds nor patches the score index was served by the memo.
func (r *libRung) selection(s *crowdval.Session, fn func() error) (float64, error) {
	b0, p0 := s.ScoreIndexStats()
	start := time.Now()
	err := fn()
	el := time.Since(start).Seconds()
	b1, p1 := s.ScoreIndexStats()
	r.counts.mu.Lock()
	r.counts.n.selections++
	r.counts.n.builds += b1 - b0
	r.counts.n.patches += p1 - p0
	if b1 == b0 && p1 == p0 {
		r.counts.n.memoHits++
	}
	r.counts.mu.Unlock()
	return el, err
}

// global is the library form of the marketplace read: every session's top
// k normalised by its cost tracker, merged under the global total order,
// with the same skip rules as server.Manager.GlobalNext.
func (r *libRung) global(ctx context.Context, k int) ([]byte, float64, error) {
	r.mu.Lock()
	all := make([]*libSession, 0, len(r.sessions))
	for _, ls := range r.sessions {
		all = append(all, ls)
	}
	r.mu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i].data.name < all[j].data.name })
	var cands []crowdval.GlobalNextCandidate
	var total float64
	for _, ls := range all {
		ls.mu.Lock()
		el, err := r.candidates(ctx, ls, k, &cands)
		ls.mu.Unlock()
		total += el
		if err != nil {
			return nil, total, err
		}
	}
	start := time.Now()
	top := crowdval.MergeGlobalNext(cands, k)
	total += time.Since(start).Seconds()
	return globalJSON(top), total, nil
}

func (r *libRung) candidates(ctx context.Context, ls *libSession, k int, out *[]crowdval.GlobalNextCandidate) (float64, error) {
	s := ls.s
	tracker, budgeted := s.CostBudget()
	if budgeted && tracker.Exhausted() {
		return 0, nil
	}
	var ranked []crowdval.ScoredObject
	el, err := r.selection(s, func() (err error) {
		ranked, err = s.NextObjectsContext(ctx, k)
		return err
	})
	if err != nil {
		if errors.Is(err, cverr.ErrSessionDone) || errors.Is(err, cverr.ErrNoCandidates) || errors.Is(err, cverr.ErrBudgetExhausted) {
			return el, nil
		}
		return el, err
	}
	for _, so := range ranked {
		gpc := so.Score / crowdval.DefaultExpertCrowdCostRatio
		if budgeted {
			gpc = tracker.GainPerCost(so.Score)
		}
		*out = append(*out, crowdval.GlobalNextCandidate{Session: ls.data.name, Object: so.Object, Gain: so.Score, GainPerCost: gpc})
	}
	return el, nil
}

func (r *libRung) snapshot(_ context.Context, name string) ([]byte, error) {
	ls, err := r.get(name)
	if err != nil {
		return nil, err
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.s.Snapshot()
}

func (r *libRung) close() {}

// ---- L1/L2: server.Manager ----

// managerConfig is the serving tier's configuration: interval-synced WAL
// flushed per record, as `crowdval serve` runs inside a fabric.
func managerConfig(dir string, budget int64, withWAL bool) server.ManagerConfig {
	cfg := server.ManagerConfig{MemoryBudget: budget, ParkDir: filepath.Join(dir, "park")}
	if withWAL {
		cfg = cfg.WithWAL(filepath.Join(dir, "wal"), wal.SyncPolicy{Mode: wal.SyncInterval})
		cfg.WALFlushEachRecord = true
	}
	return cfg
}

type managerRung struct{ m *server.Manager }

func newManagerRung(dir string, budget int64, withWAL bool) (*managerRung, error) {
	m, err := server.NewManager(managerConfig(dir, budget, withWAL))
	if err != nil {
		return nil, err
	}
	return &managerRung{m: m}, nil
}

func (r *managerRung) create(ctx context.Context, d *sessionData) (float64, error) {
	answers, err := answerSet(d)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	err = r.m.Create(ctx, d.name, answers, d.options()...)
	return time.Since(start).Seconds(), err
}

func (r *managerRung) remove(_ context.Context, name string) error { return r.m.Delete(name) }

func (r *managerRung) do(ctx context.Context, c *call, parked bool) ([]byte, float64, error) {
	start := time.Now()
	switch c.kind {
	case kindIngest:
		total, err := r.m.AddAnswers(ctx, c.session.data.name, c.answers)
		el := time.Since(start).Seconds()
		if err != nil {
			return nil, el, err
		}
		return encode(server.IngestResponse{Ingested: len(c.answers), AnswerCount: total}), el, nil
	case kindNext:
		ranked, err := r.m.NextObjects(ctx, c.session.data.name, c.k)
		el := time.Since(start).Seconds()
		if err != nil {
			return nil, el, err
		}
		return nextJSON(ranked), el, nil
	case kindValidate:
		info, err := r.m.Submit(ctx, c.session.data.name, c.object, c.label)
		el := time.Since(start).Seconds()
		if err != nil {
			return nil, el, err
		}
		return encode(server.SubmitResponse{Steps: []server.StepInfoJSON{stepJSON(info)}}), el, nil
	default:
		cands, err := r.m.GlobalNext(ctx, c.k, parked)
		el := time.Since(start).Seconds()
		if err != nil {
			return nil, el, err
		}
		return globalJSON(cands), el, nil
	}
}

func (r *managerRung) snapshot(ctx context.Context, name string) ([]byte, error) {
	return r.m.Snapshot(ctx, name)
}

func (r *managerRung) close() { _ = r.m.Close() }

// ---- L3/L4: HTTP ----

// httpRung is a client of the public JSON API at base.
type httpRung struct {
	base     string
	client   *http.Client
	shutdown func()

	requests, reqBytes, respBytes atomic.Int64
}

func newTransport() *http.Transport {
	return &http.Transport{MaxIdleConnsPerHost: 64, DisableCompression: true}
}

func (r *httpRung) roundTrip(ctx context.Context, method, path string, body []byte) ([]byte, float64, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, r.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, time.Since(start).Seconds(), err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	el := time.Since(start).Seconds()
	if err != nil {
		return nil, el, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, el, &statusError{code: resp.StatusCode, body: string(bytes.TrimSpace(out))}
	}
	return out, el, nil
}

func (r *httpRung) create(ctx context.Context, d *sessionData) (float64, error) {
	_, el, err := r.roundTrip(ctx, http.MethodPost, "/v1/sessions", d.createBody)
	return el, err
}

func (r *httpRung) remove(ctx context.Context, name string) error {
	_, _, err := r.roundTrip(ctx, http.MethodDelete, "/v1/sessions/"+name, nil)
	return err
}

// do issues one API request and counts its body sizes.
func (r *httpRung) do(ctx context.Context, c *call, parked bool) ([]byte, float64, error) {
	method, path, body, err := request(c, parked)
	if err != nil {
		return nil, 0, err
	}
	out, el, err := r.roundTrip(ctx, method, path, body)
	r.requests.Add(1)
	r.reqBytes.Add(int64(len(body)))
	r.respBytes.Add(int64(len(out)))
	return out, el, err
}

// request renders a call as an API request.
func request(c *call, parked bool) (method, path string, body []byte, err error) {
	switch c.kind {
	case kindIngest:
		req := server.IngestRequest{Answers: make([]server.AnswerJSON, len(c.answers))}
		for i, a := range c.answers {
			req.Answers[i] = server.AnswerJSON{Object: a.Object, Worker: a.Worker, Label: int(a.Label)}
		}
		body, err = json.Marshal(req)
		return http.MethodPost, "/v1/sessions/" + c.session.data.name + "/answers", body, err
	case kindNext:
		return http.MethodGet, "/v1/sessions/" + c.session.data.name + "/next?k=" + strconv.Itoa(c.k), nil, nil
	case kindValidate:
		body, err = json.Marshal(server.SubmitRequest{Validations: []server.ValidationJSON{{Object: c.object, Label: int(c.label)}}})
		return http.MethodPost, "/v1/sessions/" + c.session.data.name + "/validations", body, err
	default:
		path = "/v1/next?k=" + strconv.Itoa(c.k)
		if parked {
			path += "&parked=1"
		}
		return http.MethodGet, path, nil, nil
	}
}

func (r *httpRung) snapshot(ctx context.Context, name string) ([]byte, error) {
	b, _, err := r.roundTrip(ctx, http.MethodGet, "/v1/sessions/"+name+"/snapshot", nil)
	return b, err
}

func (r *httpRung) close() {
	r.client.CloseIdleConnections()
	r.shutdown()
}

// serve runs h on l until the returned stop function is called; stop
// returns once the serving goroutine has exited.
func serve(l net.Listener, h http.Handler) func() {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		_ = srv.Serve(l)
		close(done)
	}()
	return func() {
		_ = srv.Close()
		<-done
	}
}

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// newSingleNode is L3: one Manager with the WAL behind server.Server.
func newSingleNode(dir string, budget int64) (*httpRung, error) {
	m, err := server.NewManager(managerConfig(dir, budget, true))
	if err != nil {
		return nil, err
	}
	l, err := listen()
	if err != nil {
		_ = m.Close()
		return nil, err
	}
	api := server.New(m)
	api.SetReady(true)
	stop := serve(l, api)
	tr := newTransport()
	return &httpRung{
		base:   "http://" + l.Addr().String(),
		client: &http.Client{Transport: tr},
		shutdown: func() {
			stop()
			_ = m.Close()
		},
	}, nil
}

// fabric is L4: a cluster.Router in front of two cluster.Nodes, each a
// Manager with the WAL, all on loopback listeners.
type fabric struct {
	addrs     []string
	listeners []net.Listener
	router    net.Listener
	ring      *cluster.Ring
	managers  []*server.Manager
	nodes     []*cluster.Node
}

const fabricNodes = 2

// listenFabric opens the fabric's listeners, so session names can be
// chosen against the ownership ring before any node starts.
func listenFabric() (*fabric, error) {
	f := &fabric{}
	for i := 0; i < fabricNodes; i++ {
		l, err := listen()
		if err != nil {
			f.closeListeners()
			return nil, err
		}
		f.listeners = append(f.listeners, l)
		f.addrs = append(f.addrs, l.Addr().String())
	}
	l, err := listen()
	if err != nil {
		f.closeListeners()
		return nil, err
	}
	f.router = l
	if f.ring, err = cluster.NewRing(f.addrs); err != nil {
		f.closeListeners()
		return nil, err
	}
	return f, nil
}

func (f *fabric) closeListeners() {
	for _, l := range f.listeners {
		_ = l.Close()
	}
	if f.router != nil {
		_ = f.router.Close()
	}
}

// names picks one name per session so that session i is owned by node
// i mod 2: each client's sessions live on one node and the nodes carry
// equal shares.
func (f *fabric) names(w *workload) []string {
	out := make([]string, w.sessions)
	for i := range out {
		for j := 0; ; j++ {
			name := fmt.Sprintf("%s-%02d-%d", w.name, i, j)
			if f.ring.Owner(name) == f.addrs[i%fabricNodes] {
				out[i] = name
				break
			}
		}
	}
	return out
}

// start builds the nodes and the router; budgets[i] is node i's memory
// budget.
func (f *fabric) start(dir string, budgets []int64) (*httpRung, error) {
	var stops []func()
	stopAll := func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
		for _, m := range f.managers {
			_ = m.Close()
		}
	}
	for i, addr := range f.addrs {
		m, err := server.NewManager(managerConfig(filepath.Join(dir, fmt.Sprintf("node%d", i)), budgets[i], true))
		if err != nil {
			stopAll()
			f.closeListeners()
			return nil, err
		}
		f.managers = append(f.managers, m)
		api := server.New(m)
		api.SetReady(true)
		node, err := cluster.NewNode(cluster.NodeConfig{Self: addr, Peers: f.addrs, Manager: m, Server: api})
		if err != nil {
			stopAll()
			f.closeListeners()
			return nil, err
		}
		f.nodes = append(f.nodes, node)
		stops = append(stops, serve(f.listeners[i], node))
	}
	routerTransport := newTransport()
	rt, err := cluster.NewRouter(cluster.RouterConfig{Peers: f.addrs, Client: &http.Client{Transport: routerTransport}})
	if err != nil {
		stopAll()
		_ = f.router.Close()
		return nil, err
	}
	stops = append(stops, serve(f.router, rt), routerTransport.CloseIdleConnections)
	return &httpRung{
		base:     "http://" + f.router.Addr().String(),
		client:   &http.Client{Transport: newTransport()},
		shutdown: stopAll,
	}, nil
}

// fabricCounts sums the nodes' manager and cluster counters.
type fabricCounts struct {
	server.Stats
	notOwner int64
}

func (f *fabric) counts() fabricCounts {
	var c fabricCounts
	for i, m := range f.managers {
		s := m.Stats()
		c.Evictions += s.Evictions
		c.Resumes += s.Resumes
		c.IngestBatches += s.IngestBatches
		c.CoalescedIngests += s.CoalescedIngests
		c.IngestedAnswers += s.IngestedAnswers
		c.ShedIngests += s.ShedIngests
		c.WALRecords += s.WALRecords
		c.WALBytes += s.WALBytes
		c.WALSyncs += s.WALSyncs
		c.Checkpoints += s.Checkpoints
		c.notOwner += f.nodes[i].Stats().NotOwnerRejects
	}
	return c
}
