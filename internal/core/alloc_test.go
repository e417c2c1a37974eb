package core

// Allocation guards and micro-benchmarks for the decision path. A
// steady-state decision refits each changed model once — one buffer
// for the knots and slopes plus the interpolator itself — and returns
// one fresh assignment; all other per-decision work lives on the
// stack. These tests run under `go test ./...`, so a regression that
// puts per-decision scratch back on the heap fails CI.

import (
	"fmt"
	"testing"

	"intracache/internal/sim"
	"intracache/internal/spline"
	"intracache/internal/xrand"
)

// decideShape is the svc-decide fleet's application shape.
const (
	decideThreads = 4
	decideWays    = 16
)

// maxDecideAllocs is the steady-state allocation budget of one
// model-rung decision at n threads: two per refitted model and the
// returned assignment.
func maxDecideAllocs(n int) float64 { return float64(2*n + 1) }

// closedLoop is synthetic telemetry that responds to the assignment:
// thread t runs at CPI base[t]*(1+4/ways) with 2% noise, so the models
// collect points at several way counts and are refitted as cubics.
// Consecutive samples never repeat exactly (a repeat reads as a stuck
// counter) and never jump (a jump reads as a fault). Stepping it
// rewrites one interval in place, so it allocates nothing itself.
type closedLoop struct {
	iv   sim.IntervalStats
	cur  []int
	base []float64
	r    *xrand.Rand
	mon  sim.Monitors // boxed once: converting per call would allocate
}

func newClosedLoop(ways int, base []float64) *closedLoop {
	n := len(base)
	return &closedLoop{
		iv:   sim.IntervalStats{Threads: make([]sim.ThreadIntervalStats, n)},
		cur:  equalSplit(ways, n),
		base: base,
		r:    xrand.New(11),
		mon:  fakeMon{ways: ways, threads: n},
	}
}

// next fills the interval the current assignment produces.
func (c *closedLoop) next() sim.IntervalStats {
	c.iv.Index++
	for t := range c.iv.Threads {
		cpi := c.base[t] * (1 + 4/float64(c.cur[t])) * (1 + 0.02*c.r.Float64())
		c.iv.Threads[t] = sim.ThreadIntervalStats{
			Instructions: 100_000,
			ActiveCycles: uint64(cpi * 100_000),
			WaysAssigned: c.cur[t],
		}
	}
	return c.iv
}

// apply installs a decision's targets (nil keeps the assignment).
func (c *closedLoop) apply(targets []int) {
	if targets != nil {
		c.cur = targets
	}
}

// fitted counts the models with at least minPoints points, so a guard
// can check it measured real refits rather than constant fits.
func fitted(models []*CPIModel, minPoints int) int {
	n := 0
	for _, m := range models {
		if m.Len() >= minPoints {
			n++
		}
	}
	return n
}

func TestModelEngineDecideAllocs(t *testing.T) {
	e := NewModelEngine()
	// Without pruning the models keep their bootstrap points and every
	// refit is a natural cubic, the largest fit.
	e.MaxPointAge = 0
	c := newClosedLoop(decideWays, []float64{2, 3, 9, 4})
	for i := 0; i < 20; i++ { // past bootstrap, models populated
		c.apply(e.Decide(c.next(), c.mon, c.cur))
	}
	n := testing.AllocsPerRun(200, func() {
		c.apply(e.Decide(c.next(), c.mon, c.cur))
	})
	if got := fitted(e.Models(), 3); got != decideThreads {
		t.Fatalf("%d of %d models have three points; the guard would not measure cubic refits", got, decideThreads)
	}
	t.Logf("%v allocs per decision", n)
	if max := maxDecideAllocs(decideThreads); n > max {
		t.Errorf("ModelEngine.Decide: %v allocs per decision, want <= %v", n, max)
	}
}

func TestResilientEngineDecideAllocs(t *testing.T) {
	e := NewResilientEngine()
	c := newClosedLoop(decideWays, []float64{2, 3, 9, 4})
	for i := 0; i < 20; i++ {
		c.apply(e.Decide(c.next(), c.mon, c.cur))
	}
	n := testing.AllocsPerRun(200, func() {
		c.apply(e.Decide(c.next(), c.mon, c.cur))
	})
	if e.Health() != HealthModel || e.Demotions() != 0 {
		t.Fatalf("engine left the model rung (%v); the guard measures the model rung", e.Health())
	}
	if got := fitted(e.Model.Models(), 2); got != decideThreads {
		t.Fatalf("%d of %d models have two points; the guard would not measure refits", got, decideThreads)
	}
	t.Logf("%v allocs per decision", n)
	if max := maxDecideAllocs(decideThreads); n > max {
		t.Errorf("ResilientEngine.Decide: %v allocs per decision, want <= %v", n, max)
	}
}

// TestRuntimeSystemOnIntervalAllocs pins the runtime system's own
// overhead around the engine: with a full bounded log, recording a
// decision reuses the dropped entry's buffers.
func TestRuntimeSystemOnIntervalAllocs(t *testing.T) {
	rts, err := NewRuntimeSystem(NewResilientEngine())
	if err != nil {
		t.Fatal(err)
	}
	rts.MaxLog = 8
	c := newClosedLoop(decideWays, []float64{2, 3, 9, 4})
	for i := 0; i < 20; i++ {
		c.apply(rts.OnInterval(c.next(), c.mon))
	}
	n := testing.AllocsPerRun(200, func() {
		c.apply(rts.OnInterval(c.next(), c.mon))
	})
	t.Logf("%v allocs per interval", n)
	// The engine's budget plus, at most, one target buffer for a log
	// entry whose predecessor held none.
	if max := maxDecideAllocs(decideThreads) + 1; n > max {
		t.Errorf("RuntimeSystem.OnInterval: %v allocs per interval, want <= %v", n, max)
	}
	if got := len(rts.Decisions()); got != 8 {
		t.Errorf("log length %d, want 8", got)
	}
}

// TestCPIModelFitCached pins the fit cache: a second Fit with nothing
// observed in between returns the same interpolator without refitting,
// and every change to the points invalidates it.
func TestCPIModelFitCached(t *testing.T) {
	m := NewCPIModel(0.6)
	for w, c := range map[int]float64{2: 9, 4: 6, 8: 4, 12: 3.5} {
		m.Observe(w, c, 10)
	}
	f := m.Fit(spline.NaturalCubic)
	if g := m.Fit(spline.NaturalCubic); g != f {
		t.Error("unchanged model refitted")
	}
	if n := testing.AllocsPerRun(100, func() { m.Fit(spline.NaturalCubic) }); n != 0 {
		t.Errorf("cached Fit allocates %v", n)
	}
	if g := m.Fit(spline.Linear); g == f {
		t.Error("fit of a different kind served from the cache")
	}
	steps := []struct {
		name    string
		mutate  func()
		refresh bool
	}{
		{"rejected observe", func() { m.Observe(4, -1, 11) }, false},
		{"accepted observe", func() { m.Observe(4, 5, 11) }, true},
		{"prune that drops nothing", func() { m.Prune(5) }, false},
		{"prune that drops", func() { m.Prune(11) }, true},
		{"reset", func() { m.ResetTo(6, 4, 12); m.Observe(10, 3, 12) }, true},
		{"restore", func() {
			if err := m.RestoreModelState(m.ModelState()); err != nil {
				t.Fatal(err)
			}
		}, true},
	}
	for _, s := range steps {
		before := m.Fit(spline.NaturalCubic)
		s.mutate()
		after := m.Fit(spline.NaturalCubic)
		if (after != before) != s.refresh {
			t.Errorf("%s: refitted=%v, want %v", s.name, after != before, s.refresh)
		}
	}
}

// BenchmarkModelEngineDecide measures one steady-state decision at the
// svc-decide shape (4 threads x 16 ways) and at a wide 8 x 64 shape.
// The interval is built once, outside the timed loop.
func BenchmarkModelEngineDecide(b *testing.B) {
	shapes := []struct {
		threads, ways int
		cpis          []float64
	}{
		{4, 16, []float64{2, 3, 9, 4}},
		{8, 64, []float64{2, 3, 9, 4, 2.5, 3.5, 5, 2.2}},
	}
	for _, sh := range shapes {
		b.Run(fmt.Sprintf("%dx%d", sh.threads, sh.ways), func(b *testing.B) {
			e := NewModelEngine()
			var mon sim.Monitors = fakeMon{ways: sh.ways, threads: sh.threads}
			cur := equalSplit(sh.ways, sh.threads)
			r := xrand.New(1)
			// Warm the models.
			for i := 0; i < 6; i++ {
				cpis := make([]float64, sh.threads)
				for t := range cpis {
					cpis[t] = 1 + r.Float64()*8
				}
				if got := e.Decide(ivWith(i, cpis, cur), mon, cur); got != nil {
					cur = got
				}
			}
			iv := ivWith(0, sh.cpis, cur)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = e.Decide(iv, mon, cur)
			}
		})
	}
}
