// Command clustersmoke is the CI gate on the multi-process session fabric.
// It builds the crowdval binary, boots a real 3-node fabric plus a router as
// separate OS processes, drives a busy session through the router, SIGKILLs
// the session's leader process, promotes the WAL-tailing follower, routes
// more traffic through the failover, and finally asserts the promoted state
// is byte-identical to an in-process serial replay of exactly the
// acknowledged operations.
//
// Usage (from the repo root):
//
//	go run ./scripts/clustersmoke
//
// Exits non-zero on any divergence, lost acknowledgment, or timeout.
package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"

	"crowdval/internal/cluster"
	"crowdval/internal/server"
	"crowdval/scripts/internal/smoke"
)

const sessionName = "smoke"

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "clustersmoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("clustersmoke: ok")
}

func run() error {
	h, err := smoke.New("crowdval-clustersmoke-")
	if err != nil {
		return err
	}
	defer h.Close()

	addrs, err := smoke.FreeAddrs(4)
	if err != nil {
		return err
	}
	nodeAddrs, routerAddr := addrs[:3], addrs[3]
	peers := nodeAddrs[0] + "," + nodeAddrs[1] + "," + nodeAddrs[2]

	// The fabric's ownership function is deterministic, so the script can
	// compute which node will lead the smoke session and point the next
	// preferred node's follower at it before anything starts.
	ring, err := cluster.NewRing(nodeAddrs)
	if err != nil {
		return err
	}
	leader := ring.Owner(sessionName)
	follower := ""
	for _, p := range ring.Prefs(sessionName) {
		if p != leader {
			follower = p
			break
		}
	}
	fmt.Printf("clustersmoke: leader %s, follower %s, router %s\n", leader, follower, routerAddr)

	for i, addr := range nodeAddrs {
		args := []string{"serve", "-addr", addr,
			"-wal-dir", filepath.Join(h.Work, fmt.Sprintf("wal-%d", i)),
			"-wal-sync", "always", "-peers", peers}
		if addr == follower {
			args = append(args, "-follow", leader)
		}
		if err := h.Start(addr, args...); err != nil {
			return err
		}
	}
	if err := h.Start(routerAddr, "route", "-addr", routerAddr, "-peers", peers); err != nil {
		return err
	}
	for _, addr := range addrs {
		if err := h.WaitReady(addr); err != nil {
			return err
		}
	}

	// Create the session through the router; every acknowledged operation is
	// mirrored in process.
	routerURL := "http://" + routerAddr
	mirror, err := h.NewMirror(routerURL, sessionName)
	if err != nil {
		return err
	}

	// Busy phase: interleaved ingests and validations while the leader lives.
	for i := 0; i < 4; i++ {
		if err := mirror.Ingest(i, 2*i, 2*i+12); err != nil {
			return fmt.Errorf("pre-kill ingest %d: %w", i, err)
		}
		if err := mirror.Submit(i); err != nil {
			return fmt.Errorf("pre-kill submit %d: %w", i, err)
		}
	}

	// Wait until the follower's replica of the session equals the mirror bit
	// for bit (snapshot reads are served by any node holding a copy), then
	// check the metrics endpoint reports the replication.
	preKill, err := mirror.Snapshot()
	if err != nil {
		return err
	}
	if err := h.WaitSnapshot(follower, sessionName, preKill); err != nil {
		return fmt.Errorf("follower catch-up: %w", err)
	}
	var metrics server.MetricsResponse
	if err := h.GetJSON("http://"+follower+"/v1/metrics", &metrics); err != nil {
		return err
	}
	if metrics.Cluster == nil || metrics.Cluster.FollowedSessions < 1 {
		return fmt.Errorf("follower %s metrics do not report the followed session", follower)
	}

	fmt.Printf("clustersmoke: killing leader %s\n", leader)
	if err := h.Kill(leader); err != nil {
		return err
	}

	var promoted struct {
		Promoted []string `json:"promoted"`
	}
	if err := h.PostJSON("http://"+follower+"/internal/v1/promote",
		map[string]any{"name": sessionName}, http.StatusOK, &promoted); err != nil {
		return fmt.Errorf("promoting follower: %w", err)
	}
	if len(promoted.Promoted) != 1 || promoted.Promoted[0] != sessionName {
		return fmt.Errorf("promote returned %v, want [%s]", promoted.Promoted, sessionName)
	}

	// Post-failover phase: the router must chase the dead leader's 421s and
	// quarantines onto the promoted follower.
	for i := 0; i < 2; i++ {
		if err := mirror.Ingest(4+i, 10*i, 10*i+14); err != nil {
			return fmt.Errorf("post-kill ingest %d: %w", i, err)
		}
	}
	if err := mirror.Submit(5); err != nil {
		return fmt.Errorf("post-kill submit: %w", err)
	}

	// The verdict: the promoted session must equal the mirror bit for bit.
	resp, err := h.Client.Get(routerURL + "/v1/sessions/" + sessionName + "/snapshot")
	if err != nil {
		return fmt.Errorf("fetching promoted snapshot: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("promoted snapshot: status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	want, err := mirror.Snapshot()
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("promoted session diverged from the serial replay: %d vs %d snapshot bytes", len(got), len(want))
	}
	fmt.Printf("clustersmoke: promoted state matches serial replay (%d snapshot bytes)\n", len(got))
	return nil
}
