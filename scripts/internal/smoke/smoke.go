// Package smoke is the process harness shared by the multi-process smoke
// gates (scripts/clustersmoke, scripts/chaossmoke): build the crowdval
// binary, start and kill node processes, poll them over HTTP, and drive one
// session while mirroring every acknowledged operation on an in-process
// session — the byte-exact ground truth the gates compare nodes against.
package smoke

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"crowdval"
	"crowdval/internal/server"
)

// pollTimeout bounds every wait-for-a-node loop.
const pollTimeout = 15 * time.Second

// Harness owns a scratch directory, the crowdval binary built into it, and
// the processes started from that binary.
type Harness struct {
	Work   string
	Client *http.Client
	bin    string
	procs  map[string]*exec.Cmd
}

// New creates the scratch directory and builds ./cmd/crowdval into it; run
// from the repo root. Close releases both.
func New(prefix string) (*Harness, error) {
	work, err := os.MkdirTemp("", prefix)
	if err != nil {
		return nil, err
	}
	h := &Harness{
		Work:   work,
		Client: &http.Client{Timeout: 10 * time.Second},
		bin:    filepath.Join(work, "crowdval"),
		procs:  make(map[string]*exec.Cmd),
	}
	build := exec.Command("go", "build", "-o", h.bin, "./cmd/crowdval")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		os.RemoveAll(work)
		return nil, fmt.Errorf("building crowdval: %w", err)
	}
	return h, nil
}

// Start runs the binary with args as the process known by key (its listen
// address), with its output passed through.
func (h *Harness) Start(key string, args ...string) error {
	cmd := exec.Command(h.bin, args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", key, err)
	}
	h.procs[key] = cmd
	return nil
}

// Kill SIGKILLs the process known by key and reaps it.
func (h *Harness) Kill(key string) error {
	cmd := h.procs[key]
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		return fmt.Errorf("killing %s: %w", key, err)
	}
	_ = cmd.Wait()
	delete(h.procs, key)
	return nil
}

// Close kills every process still running and removes the scratch directory.
func (h *Harness) Close() {
	for _, cmd := range h.procs {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}
	os.RemoveAll(h.Work)
}

// FreeAddrs reserves n distinct loopback ports and releases them for the
// child processes to bind. The listen-then-close window is racy in theory;
// in a CI job that owns the machine it is not.
func FreeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners[i] = l
		addrs[i] = l.Addr().String()
	}
	for _, l := range listeners {
		_ = l.Close()
	}
	return addrs, nil
}

// poll calls ok every 50ms until it returns true or pollTimeout passes.
func poll(ok func() bool) bool {
	for deadline := time.Now().Add(pollTimeout); time.Now().Before(deadline); {
		if ok() {
			return true
		}
		time.Sleep(50 * time.Millisecond)
	}
	return false
}

// WaitReady polls the node's /readyz until it answers 200.
func (h *Harness) WaitReady(addr string) error {
	if !poll(func() bool {
		resp, err := h.Client.Get("http://" + addr + "/readyz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}) {
		return fmt.Errorf("node %s never became ready", addr)
	}
	return nil
}

// WaitHealthy polls /readyz until the node reports health "healthy".
func (h *Harness) WaitHealthy(addr string) error {
	if !poll(func() bool {
		var ready server.ReadyResponse
		return h.GetJSON("http://"+addr+"/readyz", &ready) == nil && ready.Health == "healthy"
	}) {
		return fmt.Errorf("node %s never healed", addr)
	}
	return nil
}

// WaitSnapshot polls a node's snapshot of the named session until it is
// byte-equal to want.
func (h *Harness) WaitSnapshot(addr, name string, want []byte) error {
	if !poll(func() bool {
		resp, err := h.Client.Get("http://" + addr + "/v1/sessions/" + name + "/snapshot")
		if err != nil {
			return false
		}
		got, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		return rerr == nil && resp.StatusCode == http.StatusOK && bytes.Equal(got, want)
	}) {
		return fmt.Errorf("node %s never reached the expected state of session %q", addr, name)
	}
	return nil
}

// GetJSON fetches url, requires 200 and decodes the body into into.
func (h *Harness) GetJSON(url string, into any) error {
	resp, err := h.Client.Get(url)
	if err != nil {
		return err
	}
	return decode(resp, http.StatusOK, into)
}

// PostJSON posts body as JSON, requires wantStatus and, when into is not nil,
// decodes the response into it.
func (h *Harness) PostJSON(url string, body any, wantStatus int, into any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := h.Client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	return decode(resp, wantStatus, into)
}

func decode(resp *http.Response, wantStatus int, into any) error {
	defer resp.Body.Close()
	payload, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != wantStatus {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(payload))
	}
	if into != nil {
		return json.Unmarshal(payload, into)
	}
	return nil
}

// Mirror drives one session over HTTP and mirrors every acknowledged
// operation on an in-process session: with a fixed strategy and seed the
// server-side state is a deterministic function of the acknowledged
// operations, so the mirror's snapshot is the ground truth every node
// holding the session must reproduce byte for byte.
type Mirror struct {
	// URL is where mutations go: a router or the session's leader.
	URL  string
	Name string

	h        *Harness
	d, extra *crowdval.Dataset
	sess     *crowdval.Session
}

// NewMirror generates the smoke crowd and creates the session at url.
func (h *Harness) NewMirror(url, name string) (*Mirror, error) {
	d, err := crowdval.GenerateCrowd(crowdval.CrowdConfig{
		NumObjects: 40, NumWorkers: 8, NumLabels: 2,
		Mix:            crowdval.WorkerMix{Normal: 0.6, RandomSpammer: 0.2, UniformSpammer: 0.2},
		NormalAccuracy: 0.85,
		Seed:           17,
	})
	if err != nil {
		return nil, err
	}
	extra, err := crowdval.GenerateCrowd(crowdval.CrowdConfig{
		NumObjects: 40, NumWorkers: 6, NumLabels: 2,
		Mix:            crowdval.WorkerMix{Normal: 1},
		NormalAccuracy: 0.85,
		Seed:           18,
	})
	if err != nil {
		return nil, err
	}
	sess, err := crowdval.NewSession(d.Answers.Clone(),
		crowdval.WithStrategy(crowdval.StrategyBaseline),
		crowdval.WithSeed(3), crowdval.WithParallelism(1))
	if err != nil {
		return nil, err
	}
	matrix := make([][]int, d.Answers.NumObjects())
	for o := range matrix {
		row := make([]int, d.Answers.NumWorkers())
		for w := range row {
			row[w] = int(d.Answers.Answer(o, w))
		}
		matrix[o] = row
	}
	if err := h.PostJSON(url+"/v1/sessions", server.CreateSessionRequest{
		Name:   name,
		Matrix: matrix,
		Options: server.SessionConfig{
			Strategy: string(crowdval.StrategyBaseline), Seed: 3, Parallelism: 1,
		},
	}, http.StatusCreated, nil); err != nil {
		return nil, fmt.Errorf("creating session %q: %w", name, err)
	}
	return &Mirror{URL: url, Name: name, h: h, d: d, extra: extra, sess: sess}, nil
}

// Ingest posts extra worker's answers on objects [from, to) and mirrors them
// once acknowledged.
func (m *Mirror) Ingest(worker, from, to int) error {
	var answers []crowdval.Answer
	req := server.IngestRequest{}
	id := m.d.Answers.NumWorkers() + worker
	for o := from; o < to; o++ {
		if l := m.extra.Answers.Answer(o, worker); l >= 0 {
			answers = append(answers, crowdval.Answer{Object: o, Worker: id, Label: l})
			req.Answers = append(req.Answers, server.AnswerJSON{Object: o, Worker: id, Label: int(l)})
		}
	}
	if err := m.h.PostJSON(m.URL+"/v1/sessions/"+m.Name+"/answers", req, http.StatusOK, nil); err != nil {
		return err
	}
	return m.sess.AddAnswers(context.Background(), answers)
}

// Submit posts the true label of object as an expert validation and mirrors
// it once acknowledged.
func (m *Mirror) Submit(object int) error {
	label := m.d.Truth[object]
	req := server.SubmitRequest{Validations: []server.ValidationJSON{{Object: object, Label: int(label)}}}
	if err := m.h.PostJSON(m.URL+"/v1/sessions/"+m.Name+"/validations", req, http.StatusOK, nil); err != nil {
		return err
	}
	_, err := m.sess.SubmitValidationContext(context.Background(), object, label)
	return err
}

// Snapshot is the mirror's encoded state: what every node must serve.
func (m *Mirror) Snapshot() ([]byte, error) {
	return m.sess.Snapshot()
}
