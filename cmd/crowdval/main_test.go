package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"crowdval"
)

func TestCLIEndToEnd(t *testing.T) {
	dir := t.TempDir()
	dataPath := filepath.Join(dir, "data.json")
	validatedPath := filepath.Join(dir, "validated.json")

	var out bytes.Buffer
	if err := run([]string{"generate", "-out", dataPath, "-objects", "30", "-workers", "10", "-seed", "3"}, &out); err != nil {
		t.Fatalf("generate: %v", err)
	}
	if !strings.Contains(out.String(), "30 objects") {
		t.Fatalf("generate output: %s", out.String())
	}

	out.Reset()
	if err := run([]string{"stats", "-in", dataPath}, &out); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if !strings.Contains(out.String(), "majority-vote precision") {
		t.Fatalf("stats output: %s", out.String())
	}

	out.Reset()
	if err := run([]string{"validate", "-in", dataPath, "-out", validatedPath, "-budget", "8", "-strategy", "baseline"}, &out); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if !strings.Contains(out.String(), "finished: 8 validations") {
		t.Fatalf("validate output: %s", out.String())
	}

	// -parallelism is bitwise neutral: a serial re-run prints the same
	// validation log (the first run additionally reports the -out write).
	parallelOut := out.String()
	out.Reset()
	if err := run([]string{"validate", "-in", dataPath, "-budget", "8", "-strategy", "baseline", "-parallelism", "1"}, &out); err != nil {
		t.Fatalf("validate -parallelism 1: %v", err)
	}
	if !strings.HasPrefix(parallelOut, out.String()) {
		t.Fatalf("serial validate output diverged:\n--- parallel\n%s\n--- serial\n%s", parallelOut, out.String())
	}

	out.Reset()
	if err := run([]string{"workers", "-in", validatedPath}, &out); err != nil {
		t.Fatalf("workers: %v", err)
	}
	if !strings.Contains(out.String(), "verdict") {
		t.Fatalf("workers output: %s", out.String())
	}

	out.Reset()
	if err := run([]string{"profiles"}, &out); err != nil {
		t.Fatalf("profiles: %v", err)
	}
	if !strings.Contains(out.String(), "rte") {
		t.Fatalf("profiles output: %s", out.String())
	}
}

func TestCLIGenerateProfile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bb.json")
	var out bytes.Buffer
	if err := run([]string{"generate", "-out", path, "-profile", "bb"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "108 objects") {
		t.Fatalf("profile generate output: %s", out.String())
	}
}

func TestCLIErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Fatal("missing command accepted")
	}
	if err := run([]string{"bogus"}, &out); err == nil {
		t.Fatal("unknown command accepted")
	}
	if err := run([]string{"generate"}, &out); err == nil {
		t.Fatal("generate without -out accepted")
	}
	if err := run([]string{"validate"}, &out); err == nil {
		t.Fatal("validate without -in accepted")
	}
	if err := run([]string{"validate", "-in", "does-not-exist.json"}, &out); err == nil {
		t.Fatal("missing input accepted")
	}
	if err := run([]string{"workers"}, &out); err == nil {
		t.Fatal("workers without -in accepted")
	}
	if err := run([]string{"stats"}, &out); err == nil {
		t.Fatal("stats without -in accepted")
	}
	if err := run([]string{"generate", "-out", filepath.Join(t.TempDir(), "x.json"), "-profile", "nope"}, &out); err == nil {
		t.Fatal("unknown profile accepted")
	}
	if err := run([]string{"serve", "-follow", "h:1"}, &out); err == nil {
		t.Fatal("serve accepted -follow without -peers")
	}
	if err := run([]string{"serve", "-drain"}, &out); err == nil {
		t.Fatal("serve accepted -drain without -peers")
	}
	if err := run([]string{"serve", "-peers", "h:1,h:2"}, &out); err == nil {
		t.Fatal("serve accepted -peers without -wal-dir")
	}
	if err := run([]string{"route"}, &out); err == nil {
		t.Fatal("route accepted a missing -peers")
	}
}

// TestCLIServeFabricListenError boots the full fabric wiring — manager with
// WAL, node, follower — against an already-bound address, so the command
// constructs everything, prints the fabric banner, and exits through the
// listen-error path instead of blocking on a signal.
func TestCLIServeFabricListenError(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	addr := l.Addr().String()
	var out bytes.Buffer
	err = run([]string{"serve", "-addr", addr, "-wal-dir", t.TempDir(),
		"-peers", addr + ",peer2:1", "-follow", "peer2:1", "-drain"}, &out)
	if err == nil {
		t.Fatal("serve on a bound address succeeded")
	}
	if !strings.Contains(out.String(), "fabric: node "+addr+" of 2 peers, following peer2:1") {
		t.Fatalf("serve did not report its fabric membership:\n%s", out.String())
	}
}

// TestCLIRouteListenError covers the router construction the same way.
func TestCLIRouteListenError(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var out bytes.Buffer
	err = run([]string{"route", "-addr", l.Addr().String(), "-peers", "a:1,b:1"}, &out)
	if err == nil {
		t.Fatal("route on a bound address succeeded")
	}
	if !strings.Contains(out.String(), "across 2 nodes") {
		t.Fatalf("route did not report its peer count:\n%s", out.String())
	}
}

func TestCLITimeoutReportsTypedError(t *testing.T) {
	dir := t.TempDir()
	dataPath := filepath.Join(dir, "data.json")
	var out bytes.Buffer
	if err := run([]string{"generate", "-out", dataPath, "-objects", "400", "-workers", "40", "-seed", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	// A 1ns budget cannot finish even the first validation step; the run
	// must fail with the context's deadline error, which ErrorName does not
	// rename (it is the standard library's sentinel).
	err := run([]string{"validate", "-in", dataPath, "-budget", "5", "-strategy", "baseline", "-timeout", "1ns"}, &out)
	if err == nil {
		t.Fatal("timeout ignored")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timeout error = %v, want context.DeadlineExceeded", err)
	}
}

func TestCLIResumeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	dataPath := filepath.Join(dir, "data.json")
	snapPath := filepath.Join(dir, "session.cvsn")
	var out bytes.Buffer
	if err := run([]string{"generate", "-out", dataPath, "-objects", "25", "-workers", "10", "-seed", "5"}, &out); err != nil {
		t.Fatal(err)
	}

	// Straight run to budget 10: the reference log.
	out.Reset()
	if err := run([]string{"validate", "-in", dataPath, "-budget", "10"}, &out); err != nil {
		t.Fatalf("reference validate: %v", err)
	}
	reference := out.String()

	// Same run split in two: stop at 5, snapshot, resume with budget 10.
	out.Reset()
	if err := run([]string{"validate", "-in", dataPath, "-budget", "5", "-snapshot-out", snapPath}, &out); err != nil {
		t.Fatalf("first half: %v", err)
	}
	if !strings.Contains(out.String(), "wrote session snapshot to "+snapPath) {
		t.Fatalf("snapshot not reported: %s", out.String())
	}
	out.Reset()
	if err := run([]string{"validate", "-in", dataPath, "-resume", snapPath, "-budget", "10"}, &out); err != nil {
		t.Fatalf("resumed half: %v", err)
	}
	resumed := out.String()
	if !strings.Contains(resumed, "finished: 10 validations") {
		t.Fatalf("resumed run did not reach the budget: %s", resumed)
	}
	// The resumed run's validation steps 6..10 must be exactly the reference
	// run's — the snapshot continues the hybrid session bit for bit.
	for _, line := range strings.Split(reference, "\n") {
		if strings.Contains(line, "validation   6") || strings.Contains(line, "validation   8") ||
			strings.Contains(line, "validation  10") {
			if !strings.Contains(resumed, line) {
				t.Fatalf("resumed run diverged from the straight run: missing %q in:\n%s", line, resumed)
			}
		}
	}
}

// TestCLIResumeMalformedSnapshotTypedError pins the contract the exit path
// relies on: a malformed snapshot passed to -resume surfaces an error whose
// ErrorName is the stable sentinel identifier, which main prints to stderr
// before exiting non-zero.
func TestCLIResumeMalformedSnapshotTypedError(t *testing.T) {
	dir := t.TempDir()
	dataPath := filepath.Join(dir, "data.json")
	var out bytes.Buffer
	if err := run([]string{"generate", "-out", dataPath, "-objects", "10", "-workers", "5"}, &out); err != nil {
		t.Fatal(err)
	}

	badPath := filepath.Join(dir, "bad.cvsn")
	if err := os.WriteFile(badPath, []byte("definitely not a session snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"validate", "-in", dataPath, "-resume", badPath}, &out)
	if err == nil {
		t.Fatal("malformed snapshot accepted")
	}
	if !errors.Is(err, crowdval.ErrBadSnapshot) {
		t.Fatalf("error = %v, want ErrBadSnapshot", err)
	}
	if name := crowdval.ErrorName(err); name != "ErrBadSnapshot" {
		t.Fatalf("ErrorName = %q, want ErrBadSnapshot", name)
	}

	// A truncated but genuine snapshot is equally typed.
	snapPath := filepath.Join(dir, "session.cvsn")
	if err := run([]string{"validate", "-in", dataPath, "-budget", "2", "-snapshot-out", snapPath}, &out); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapPath, whole[:len(whole)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"validate", "-in", dataPath, "-resume", snapPath}, &out)
	if name := crowdval.ErrorName(err); name != "ErrBadSnapshot" {
		t.Fatalf("truncated snapshot: ErrorName = %q (err %v), want ErrBadSnapshot", name, err)
	}

	// A snapshot from a different dataset is a typed dimension mismatch.
	otherData := filepath.Join(dir, "other.json")
	otherSnap := filepath.Join(dir, "other.cvsn")
	if err := run([]string{"generate", "-out", otherData, "-objects", "6", "-workers", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"validate", "-in", otherData, "-budget", "1", "-snapshot-out", otherSnap}, &out); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"validate", "-in", dataPath, "-resume", otherSnap}, &out)
	if name := crowdval.ErrorName(err); name != "ErrDimensionMismatch" {
		t.Fatalf("mismatched snapshot: ErrorName = %q (err %v), want ErrDimensionMismatch", name, err)
	}
}

func TestCLIUnknownStrategyHasTypedName(t *testing.T) {
	dir := t.TempDir()
	dataPath := filepath.Join(dir, "data.json")
	var out bytes.Buffer
	if err := run([]string{"generate", "-out", dataPath, "-objects", "10", "-workers", "5"}, &out); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"validate", "-in", dataPath, "-strategy", "bogus"}, &out)
	if err == nil {
		t.Fatal("unknown strategy accepted")
	}
	if name := crowdval.ErrorName(err); name != "ErrUnknownStrategy" {
		t.Fatalf("ErrorName = %q, want ErrUnknownStrategy", name)
	}
}

// TestCLILoadgenPrintsPercentiles: loadgen reports p50/p95/p99 latency per
// request kind — ingest always, plus the read kind of the next and
// globalnext mixes — with the sample count, and the percentiles are ordered.
func TestCLILoadgenPrintsPercentiles(t *testing.T) {
	for _, mix := range []string{"ingest", "next", "globalnext"} {
		var out bytes.Buffer
		err := run([]string{"loadgen",
			"-sessions", "2", "-clients", "2", "-requests", "6", "-batch", "5",
			"-objects", "80", "-workers", "12", "-answers-per-object", "4",
			"-delta", "-delta-scoring", "-mix", mix, "-strategy", "uncertainty",
			"-next-k", "3", "-seed", "11"}, &out)
		if err != nil {
			t.Fatalf("loadgen -mix %s: %v\n%s", mix, err, out.String())
		}
		// Two clients × six requests; the mixed workloads alternate kinds.
		kinds := map[string]int{"ingest": 12}
		if mix != "ingest" {
			kinds = map[string]int{"ingest": 6, mix: 6}
		}
		for kind, n := range kinds {
			var p50, p95, p99 time.Duration
			var got int
			found := false
			for _, line := range strings.Split(out.String(), "\n") {
				fields := strings.Fields(strings.TrimPrefix(strings.TrimSpace(line), "latency:"))
				if len(fields) != 8 || fields[0] != kind {
					continue
				}
				found = true
				var perr error
				for i, dst := range []*time.Duration{&p50, &p95, &p99} {
					if *dst, perr = time.ParseDuration(fields[2+2*i]); perr != nil {
						t.Fatalf("-mix %s: %s percentile %q: %v", mix, kind, fields[2+2*i], perr)
					}
				}
				if _, perr = fmt.Sscanf(fields[7], "(n=%d)", &got); perr != nil {
					t.Fatalf("-mix %s: %s sample count %q: %v", mix, kind, fields[7], perr)
				}
			}
			if !found {
				t.Fatalf("-mix %s: no %s latency line:\n%s", mix, kind, out.String())
			}
			if got != n {
				t.Fatalf("-mix %s: %s latency over %d samples, want %d", mix, kind, got, n)
			}
			if p50 <= 0 || p50 > p95 || p95 > p99 {
				t.Fatalf("-mix %s: %s percentiles out of order: p50 %v p95 %v p99 %v", mix, kind, p50, p95, p99)
			}
		}
	}
}
