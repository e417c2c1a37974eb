package service

import (
	"testing"

	"intracache/internal/sim"
	"intracache/internal/xrand"
)

// TestProcessAllocs pins the service's own share of a decision at the
// svc-decide shape (4 threads, 16 ways): process reads queued samples
// in place and shifts the queue without reallocating it, so on top of
// the engine's budget (two allocations per refitted model and the
// returned assignment) it adds only the Decision's own copy of the
// allocation and, when the allocation changed, the epoch's new watch
// channel.
func TestProcessAllocs(t *testing.T) {
	const threads, ways = 4, 16
	// Closed-loop telemetry: thread t's CPI falls with its ways and
	// wobbles a little, so models refit every decision and no sample
	// repeats (a repeat reads as a stuck counter).
	base := []float64{2, 3, 9, 4}
	r := xrand.New(3)
	fill := func(smp Sample, current []int) {
		for t := range smp.Threads {
			cpi := base[t] * (1 + 4/float64(current[t])) * (1 + 0.02*r.Float64())
			smp.Threads[t] = sim.ThreadIntervalStats{Instructions: 100_000, ActiveCycles: uint64(cpi * 100_000)}
		}
	}
	pool := make([]Sample, 4)
	for i := range pool {
		pool[i].Threads = make([]sim.ThreadIntervalStats, threads)
	}

	s := New(Options{})
	fill(pool[0], equalSplit(ways, threads))
	if rep := s.Ingest(Batch{App: "app", Threads: threads, Ways: ways, Samples: pool[:1]}); rep.Accepted != 1 {
		t.Fatalf("ingest: %+v", rep)
	}
	sess := s.sessions["app"]
	k := 0
	step := func() {
		smp := pool[k%len(pool)]
		k++
		fill(smp, sess.current)
		sess.queue = append(sess.queue, smp)
		s.process(sess)
	}
	for i := 0; i < 20; i++ {
		step()
	}
	n := testing.AllocsPerRun(200, step)
	if sess.eng.Health().String() != "model" {
		t.Fatalf("session left the model rung (%v); the guard measures the model rung", sess.eng.Health())
	}
	if len(sess.queue) != 0 {
		t.Fatalf("queue not drained: %d", len(sess.queue))
	}
	t.Logf("%v allocs per processed sample", n)
	if max := float64(2*threads+1) + 2; n > max {
		t.Errorf("process: %v allocs per sample, want <= %v", n, max)
	}
}
