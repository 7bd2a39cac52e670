// Command chaossmoke is the CI gate on graceful degradation under disk
// faults, end to end across real OS processes. It builds the crowdval
// binary, boots a 2-node fabric (leader plus WAL-tailing follower) with
// runtime fault injection enabled, drives a session, then arms an fsync
// fault on the leader and asserts the degraded contract live:
//
//   - mutations are rejected with HTTP 503 + Retry-After, never dropped
//     silently and never acknowledged;
//   - reads keep serving 200 on the degraded leader and on the follower;
//   - /readyz stays 200 but reports health "degraded", and the Prometheus
//     exposition carries the degraded-session gauge;
//   - after the fault clears, the probe loop heals the node with no
//     restart, mutations flow again, and the final state on both nodes is
//     byte-identical to an in-process serial replay of exactly the
//     acknowledged operations.
//
// Usage (from the repo root):
//
//	go run ./scripts/chaossmoke
//
// Exits non-zero on any violation of the degraded contract, divergence, or
// timeout.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"crowdval/internal/cluster"
	"crowdval/internal/server"
	"crowdval/scripts/internal/smoke"
)

const sessionName = "chaos"

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "chaossmoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("chaossmoke: ok")
}

func run() error {
	h, err := smoke.New("crowdval-chaossmoke-")
	if err != nil {
		return err
	}
	defer h.Close()

	nodeAddrs, err := smoke.FreeAddrs(2)
	if err != nil {
		return err
	}
	peers := nodeAddrs[0] + "," + nodeAddrs[1]

	// Ownership is deterministic: compute the session's leader up front and
	// point the other node's follower at it.
	ring, err := cluster.NewRing(nodeAddrs)
	if err != nil {
		return err
	}
	leader := ring.Owner(sessionName)
	follower := nodeAddrs[0]
	if follower == leader {
		follower = nodeAddrs[1]
	}
	fmt.Printf("chaossmoke: leader %s, follower %s\n", leader, follower)

	for i, addr := range nodeAddrs {
		args := []string{"serve", "-addr", addr,
			"-wal-dir", filepath.Join(h.Work, fmt.Sprintf("wal-%d", i)),
			"-wal-sync", "always", "-checkpoint-every", "4",
			"-peers", peers,
			// A fast probe keeps the self-heal portion of the run short;
			// production default is 1s.
			"-probe-interval", "100ms", "-enable-fault-injection"}
		if addr == follower {
			args = append(args, "-follow", leader)
		}
		if err := h.Start(addr, args...); err != nil {
			return err
		}
	}
	for _, addr := range nodeAddrs {
		if err := h.WaitReady(addr); err != nil {
			return err
		}
	}

	// Every acknowledged operation is mirrored in process: the byte-exact
	// ground truth.
	leaderURL := "http://" + leader
	mirror, err := h.NewMirror(leaderURL, sessionName)
	if err != nil {
		return err
	}

	// Healthy phase: acked traffic crossing checkpoint rotations.
	for i := 0; i < 3; i++ {
		if err := mirror.Ingest(i, 2*i, 2*i+10); err != nil {
			return fmt.Errorf("healthy ingest %d: %w", i, err)
		}
		if err := mirror.Submit(i); err != nil {
			return fmt.Errorf("healthy submit %d: %w", i, err)
		}
	}
	healthySnap, err := mirror.Snapshot()
	if err != nil {
		return err
	}
	if err := h.WaitSnapshot(follower, sessionName, healthySnap); err != nil {
		return fmt.Errorf("pre-fault follower catch-up: %w", err)
	}

	// Break the leader's disk: every fsync fails until cleared.
	fmt.Printf("chaossmoke: arming fsync fault on leader %s\n", leader)
	if err := h.PostJSON(leaderURL+"/internal/v1/faults", map[string]any{
		"rules": []map[string]any{{"op": "sync", "err": "eio"}},
	}, http.StatusOK, nil); err != nil {
		return fmt.Errorf("arming fault: %w", err)
	}

	// The degraded contract, live: a mutation must come back 503 with a
	// Retry-After hint and must NOT be acknowledged (it is deliberately not
	// mirrored).
	degradedReq := server.IngestRequest{Answers: []server.AnswerJSON{{Object: 0, Worker: 99, Label: 1}}}
	raw, _ := json.Marshal(degradedReq)
	resp, err := h.Client.Post(leaderURL+"/v1/sessions/"+sessionName+"/answers", "application/json", bytes.NewReader(raw))
	if err != nil {
		return fmt.Errorf("degraded-mode mutation: %w", err)
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		return fmt.Errorf("mutation under disk fault: status %d (%s), want 503", resp.StatusCode, bytes.TrimSpace(body))
	}
	if resp.Header.Get("Retry-After") == "" {
		return fmt.Errorf("503 response is missing the Retry-After header")
	}
	fmt.Printf("chaossmoke: mutation rejected 503, Retry-After %ss\n", resp.Header.Get("Retry-After"))

	// Reads keep serving on the degraded leader and on the healthy replica.
	for _, addr := range []string{leader, follower} {
		r, err := h.Client.Get("http://" + addr + "/v1/sessions/" + sessionName + "/snapshot")
		if err != nil {
			return fmt.Errorf("degraded-mode read on %s: %w", addr, err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			return fmt.Errorf("degraded-mode read on %s: status %d, want 200", addr, r.StatusCode)
		}
	}

	// Readiness stays 200 (pulling the node would turn a partial outage
	// into a full one) but reports the degraded state; Prometheus carries
	// the gauge.
	var ready server.ReadyResponse
	if err := h.GetJSON(leaderURL+"/readyz", &ready); err != nil {
		return fmt.Errorf("degraded readyz: %w", err)
	}
	if ready.Health != "degraded" || ready.DegradedSessions != 1 {
		return fmt.Errorf("degraded readyz reports health=%q sessions=%d, want degraded/1", ready.Health, ready.DegradedSessions)
	}
	prom, err := h.Client.Get(leaderURL + "/metrics")
	if err != nil {
		return fmt.Errorf("prometheus scrape: %w", err)
	}
	promBody, _ := io.ReadAll(prom.Body)
	prom.Body.Close()
	if !strings.Contains(string(promBody), "crowdval_wal_degraded_sessions 1") {
		return fmt.Errorf("prometheus exposition does not report the degraded session")
	}
	fmt.Println("chaossmoke: degraded mode verified (reads 200, readyz degraded, gauge exported)")

	// Lift the fault; the probe loop must heal the node with no restart.
	if err := h.PostJSON(leaderURL+"/internal/v1/faults", map[string]any{"clear": true}, http.StatusOK, nil); err != nil {
		return fmt.Errorf("clearing faults: %w", err)
	}
	if err := h.WaitHealthy(leader); err != nil {
		return err
	}
	fmt.Println("chaossmoke: leader self-healed")

	// Post-heal phase: mutations flow again and replicate.
	for i := 0; i < 2; i++ {
		if err := mirror.Ingest(3+i, 5*i, 5*i+12); err != nil {
			return fmt.Errorf("post-heal ingest %d: %w", i, err)
		}
	}
	if err := mirror.Submit(5); err != nil {
		return fmt.Errorf("post-heal submit: %w", err)
	}

	// The verdict: leader and follower must both equal the mirror bit for
	// bit — the degraded window acknowledged nothing it then lost, and the
	// torn rejects never leaked into replication.
	want, err := mirror.Snapshot()
	if err != nil {
		return err
	}
	if err := h.WaitSnapshot(leader, sessionName, want); err != nil {
		return fmt.Errorf("leader final state: %w", err)
	}
	if err := h.WaitSnapshot(follower, sessionName, want); err != nil {
		return fmt.Errorf("follower final state: %w", err)
	}
	fmt.Printf("chaossmoke: leader and follower match serial replay (%d snapshot bytes)\n", len(want))
	return nil
}
