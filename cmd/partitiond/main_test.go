package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"intracache/internal/service"
	"intracache/internal/sim"
)

// smokeBatch builds a small healthy batch for the daemon tests.
func smokeBatch(app string, jitter uint64) service.Batch {
	b := service.Batch{App: app, Threads: 2, Ways: 8}
	for i := uint64(0); i < 4; i++ {
		b.Samples = append(b.Samples, service.Sample{Threads: []sim.ThreadIntervalStats{
			{Instructions: 100_000, ActiveCycles: 150_000 + (jitter+i)*777, L2Accesses: 500, L2Hits: 400, L2Misses: 100 + i},
			{Instructions: 100_000, ActiveCycles: 250_000 + (jitter+i)*333, L2Accesses: 800, L2Hits: 500, L2Misses: 300 + i},
		}})
	}
	return b
}

func postBatch(t *testing.T, base string, b service.Batch) service.IngestReply {
	t.Helper()
	body, err := service.SealJSON(b)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/ingest", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var reply service.IngestReply
	if err := service.UnsealJSON(data, &reply); err != nil {
		t.Fatalf("code %d body %q: %v", resp.StatusCode, data, err)
	}
	return reply
}

// TestServeDrainAndRestart runs the daemon loop in-process: ingest a
// batch over HTTP, SIGTERM it, and check the drain contract — exit 0,
// queued samples flushed through a final decision, checkpoint written
// — then restart from the checkpoint and confirm the session survived.
func TestServeDrainAndRestart(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "pd.ckpt")
	run := func(ingest bool) int {
		bound := make(chan string, 1)
		exit := make(chan int, 1)
		go func() {
			exit <- serve("127.0.0.1:0", service.Options{}, 1, 0, 20*time.Millisecond, 0, ckpt, 0, bound)
		}()
		base := "http://" + <-bound
		if ingest {
			if rep := postBatch(t, base, smokeBatch("web-01", 1)); rep.Accepted != 4 {
				t.Fatalf("ingest: %+v", rep)
			}
		} else {
			// The restarted daemon must have restored the session.
			deadline := time.Now().Add(2 * time.Second)
			for {
				resp, err := http.Get(base + "/alloc?app=web-01")
				if err == nil {
					resp.Body.Close()
					if resp.StatusCode == http.StatusOK {
						break
					}
					t.Fatalf("restored daemon: /alloc -> %d", resp.StatusCode)
				}
				if time.Now().After(deadline) {
					t.Fatal("restored daemon never answered /alloc")
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case code := <-exit:
			return code
		case <-time.After(10 * time.Second):
			t.Fatal("daemon did not drain within 10s of SIGTERM")
			return -1
		}
	}

	if code := run(true); code != exitOK {
		t.Fatalf("first daemon exit=%d, want %d", code, exitOK)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("drain wrote no checkpoint: %v", err)
	}
	// The checkpoint must carry the session with its queued samples
	// already flushed to a decision by the final drain tick.
	svc := service.New(service.Options{})
	if err := svc.LoadCheckpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	alloc, ok := svc.Allocation("web-01")
	if !ok {
		t.Fatal("checkpoint lost the session")
	}
	if alloc.Queued != 0 || alloc.Interval != 4 {
		t.Fatalf("drain left unflushed samples: %+v", alloc)
	}
	if code := run(false); code != exitOK {
		t.Fatalf("restarted daemon exit=%d, want %d", code, exitOK)
	}
}

// TestServeShardedDrainAndRestart runs the daemon at -shards 4: ingest
// over HTTP routes to the owning shard, a watch long-poll is answered
// by the ticker's next decision, SIGTERM drains into per-shard
// checkpoint files under one manifest, and a restarted daemon at the
// same shard count restores the session.
func TestServeShardedDrainAndRestart(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "pd.ckpt")
	run := func(ingest bool) int {
		bound := make(chan string, 1)
		exit := make(chan int, 1)
		go func() {
			exit <- serve("127.0.0.1:0", service.Options{}, 4, 2, 20*time.Millisecond, 0, ckpt, 0, bound)
		}()
		base := "http://" + <-bound
		if ingest {
			if rep := postBatch(t, base, smokeBatch("web-01", 1)); rep.Accepted != 4 {
				t.Fatalf("ingest: %+v", rep)
			}
			// The push path against the live ticker: epoch 1 is the
			// creation state, so the first decision answers the watch.
			resp, err := http.Get(base + "/alloc?app=web-01&watch=1&epoch=1&timeout=5s")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("watch against live daemon: %d", resp.StatusCode)
			}
		} else {
			deadline := time.Now().Add(2 * time.Second)
			for {
				resp, err := http.Get(base + "/alloc?app=web-01")
				if err == nil {
					resp.Body.Close()
					if resp.StatusCode == http.StatusOK {
						break
					}
					t.Fatalf("restored daemon: /alloc -> %d", resp.StatusCode)
				}
				if time.Now().After(deadline) {
					t.Fatal("restored daemon never answered /alloc")
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case code := <-exit:
			return code
		case <-time.After(10 * time.Second):
			t.Fatal("sharded daemon did not drain within 10s of SIGTERM")
			return -1
		}
	}

	if code := run(true); code != exitOK {
		t.Fatalf("first sharded daemon exit=%d, want %d", code, exitOK)
	}
	// The drain must have written the manifest plus the owning shard's
	// file; a wrong-count restart must be refused.
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("drain wrote no manifest: %v", err)
	}
	// The drain's save is the manifest's first generation, so shard
	// files carry the .g1 stamp (each save writes a fresh generation and
	// GCs the old one only after the manifest commits).
	own := service.ShardIndex("web-01", 4)
	if _, err := os.Stat(fmt.Sprintf("%s.g1.shard%d", ckpt, own)); err != nil {
		t.Fatalf("drain wrote no shard file for the session's shard: %v", err)
	}
	wrong := service.NewSharded(service.Options{}, 2, 1)
	if err := wrong.LoadCheckpoint(ckpt); err == nil {
		t.Fatal("2-shard restore of the 4-shard daemon checkpoint succeeded")
	}
	if code := run(false); code != exitOK {
		t.Fatalf("restarted sharded daemon exit=%d, want %d", code, exitOK)
	}
}

// TestServeSignalAtStartup sends SIGTERM the instant the daemon
// publishes its address, before it has served anything. The signal
// handler is registered before the socket opens, so the daemon must
// drain cleanly (exit 0, checkpoint written) rather than take the
// default action and kill the process. Several rounds widen the window
// the signal can land in.
func TestServeSignalAtStartup(t *testing.T) {
	for round := 0; round < 5; round++ {
		ckpt := filepath.Join(t.TempDir(), "pd.ckpt")
		bound := make(chan string, 1)
		exit := make(chan int, 1)
		go func() {
			exit <- serve("127.0.0.1:0", service.Options{}, 1, 0, 20*time.Millisecond, 0, ckpt, 0, bound)
		}()
		<-bound
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case code := <-exit:
			if code != exitOK {
				t.Fatalf("round %d: exit=%d, want %d", round, code, exitOK)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: daemon did not drain within 10s of a startup SIGTERM", round)
		}
		if _, err := os.Stat(ckpt); err != nil {
			t.Fatalf("round %d: startup drain wrote no checkpoint: %v", round, err)
		}
	}
}

// TestSelftestSharded pins the -shards selftest path: the sharded run
// passes its own SLO and the built-in differential against the
// unsharded service (exit 0); the kill/restart differential runs
// sharded too.
func TestSelftestSharded(t *testing.T) {
	c := selftestConfig{
		opts: service.Options{}, apps: 40, steps: 4, threads: 2, ways: 8,
		seed: 7, sloP99: time.Minute, killStep: 2, shards: 4, tickWorkers: 2,
	}
	if code := runSelftest(c); code != exitOK {
		t.Fatalf("sharded selftest exit=%d, want %d", code, exitOK)
	}
}

// TestSelftestExitCodes pins the documented 0/3 convention: a clean
// run exits 0, an impossible SLO exits 3 (degraded), both through the
// same harness the CI soak job drives.
func TestSelftestExitCodes(t *testing.T) {
	base := selftestConfig{
		opts: service.Options{}, apps: 20, steps: 4, threads: 2, ways: 8,
		seed: 7, sloP99: time.Minute, killStep: 2,
	}
	if code := runSelftest(base); code != exitOK {
		t.Fatalf("clean selftest exit=%d, want %d", code, exitOK)
	}
	breached := base
	breached.sloP99 = time.Nanosecond
	if code := runSelftest(breached); code != exitDegraded {
		t.Fatalf("SLO-breach selftest exit=%d, want %d", code, exitDegraded)
	}
	// -kill-step with a wall-clock deadline cannot be verified exactly;
	// that is a usage error, not a degraded run.
	invalid := base
	invalid.deadline = time.Second
	if code := runSelftest(invalid); code != exitHard {
		t.Fatalf("kill-step+deadline selftest exit=%d, want %d", code, exitHard)
	}
}
