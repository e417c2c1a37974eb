package core

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"intracache/internal/spline"
	"intracache/internal/xrand"
)

func TestCPIModelPrune(t *testing.T) {
	m := NewCPIModel(1)
	m.Observe(4, 10, 1)
	m.Observe(8, 6, 2)
	m.Observe(16, 4, 3)
	m.Observe(32, 3, 10)
	// Prune everything older than interval 5: points from intervals 1-3
	// are stale, but the freshest two must survive.
	m.Prune(5)
	ways, _ := m.Points()
	if len(ways) != 2 {
		t.Fatalf("points after prune: %v", ways)
	}
	if ways[0] != 16 || ways[1] != 32 {
		t.Errorf("kept %v, want the freshest two [16 32]", ways)
	}
	// Pruning a two-point model is a no-op.
	m.Prune(100)
	if m.Len() != 2 {
		t.Errorf("prune below two points: %d", m.Len())
	}
}

func TestCPIModelPruneKeepsFreshTies(t *testing.T) {
	m := NewCPIModel(1)
	m.Observe(4, 10, 5)
	m.Observe(8, 6, 5)
	m.Observe(16, 4, 5)
	m.Prune(6) // all stale; freshest two by (stamp, ways) kept
	if m.Len() != 2 {
		t.Fatalf("len = %d", m.Len())
	}
	ways, _ := m.Points()
	if ways[0] != 4 || ways[1] != 8 {
		t.Errorf("tie-break kept %v, want deterministic [4 8]", ways)
	}
}

func TestPredictorLinearExtrapolation(t *testing.T) {
	m := NewCPIModel(1)
	m.Observe(8, 10, 0)
	m.Observe(16, 6, 0)
	p := newPredictor(m, spline.NaturalCubic, 0)
	// Inside the range: spline (here linear through two points).
	if got := p.eval(12); got != 8 {
		t.Errorf("eval(12) = %v, want 8", got)
	}
	// Above the range: continue the edge slope (-0.5/way).
	if got := p.eval(20); got != 4 {
		t.Errorf("eval(20) = %v, want 4", got)
	}
	// Below the range: continue the low-edge slope upward.
	if got := p.eval(4); got != 12 {
		t.Errorf("eval(4) = %v, want 12", got)
	}
}

func TestPredictorExtrapolationFloor(t *testing.T) {
	m := NewCPIModel(1)
	m.Observe(8, 2, 0)
	m.Observe(16, 1, 0)
	p := newPredictor(m, spline.NaturalCubic, 0)
	// Slope -0.125/way would go negative far out; must floor at 0.5.
	if got := p.eval(64); got != 0.5 {
		t.Errorf("eval(64) = %v, want floor 0.5", got)
	}
}

func TestPredictorSinglePointAndEmpty(t *testing.T) {
	m := NewCPIModel(1)
	p := newPredictor(m, spline.NaturalCubic, 7.5)
	if got := p.eval(10); got != 7.5 {
		t.Errorf("empty model eval = %v, want fallback 7.5", got)
	}
	m.Observe(16, 3, 0)
	p = newPredictor(m, spline.NaturalCubic, 7.5)
	for _, w := range []int{1, 16, 64} {
		if got := p.eval(w); got != 3 {
			t.Errorf("single-point eval(%d) = %v, want 3", w, got)
		}
	}
}

func TestRelSpread(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{2, 2, 2}, 0},
		{[]float64{2, 4}, 1},
		{[]float64{0, 5}, 0},   // one positive entry
		{[]float64{-1, -2}, 0}, // none positive
		{nil, 0},
		{[]float64{5, 0, 10}, 1},
	}
	for _, c := range cases {
		if got := relSpread(c.in); got != c.want {
			t.Errorf("relSpread(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestLexLess(t *testing.T) {
	cases := []struct {
		a, b []float64
		want bool
	}{
		{[]float64{3, 2, 1}, []float64{3, 2, 1}, false},
		{[]float64{2, 2, 1}, []float64{3, 2, 1}, true},
		{[]float64{3, 2, 0}, []float64{3, 2, 1}, true},
		{[]float64{4, 0, 0}, []float64{3, 9, 9}, false},
		{[]float64{3, 2, 1 + 1e-12}, []float64{3, 2, 1}, false}, // within eps
	}
	for _, c := range cases {
		if got := lexLess(c.a, c.b); got != c.want {
			t.Errorf("lexLess(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestSortedDesc pins sortDescInto to the order the library sort gives
// (sort.Reverse over Float64Slice: descending, NaNs last), including
// ties and NaNs, and checks the input is left alone.
func TestSortedDesc(t *testing.T) {
	in := []float64{1, 3, 2}
	got := make([]float64, 3)
	sortDescInto(got, in)
	if got[0] != 3 || got[1] != 2 || got[2] != 1 {
		t.Errorf("sortDescInto = %v", got)
	}
	if in[0] != 1 || in[1] != 3 || in[2] != 2 {
		t.Error("sortDescInto mutated input")
	}
	r := xrand.New(3)
	for trial := 0; trial < 500; trial++ {
		xs := make([]float64, 1+r.Intn(9))
		for i := range xs {
			switch r.Intn(6) {
			case 0:
				xs[i] = math.NaN()
			case 1:
				xs[i] = 2 // ties
			default:
				xs[i] = r.Float64() * 5
			}
		}
		want := append([]float64(nil), xs...)
		sort.Sort(sort.Reverse(sort.Float64Slice(want)))
		got := make([]float64, len(xs))
		sortDescInto(got, xs)
		for i := range want {
			if got[i] != want[i] && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
				t.Fatalf("sortDescInto(%v) = %v, want %v", xs, got, want)
			}
		}
	}
}

func TestArgMinDonorPrefersCheapPostDonationCost(t *testing.T) {
	// Thread 0 has the lowest current CPI but a steep cliff one way
	// down (stale low-allocation point); thread 1 has a flat model.
	// The donor choice must pick thread 1.
	m0 := NewCPIModel(1)
	m0.Observe(1, 18, 0)
	m0.Observe(5, 5.0, 10)
	m1 := NewCPIModel(1)
	m1.Observe(15, 5.6, 9)
	m1.Observe(16, 5.5, 10)
	preds := []predictor{
		newPredictor(m0, spline.NaturalCubic, 5),
		newPredictor(m1, spline.NaturalCubic, 5.5),
	}
	ways := []int{5, 16}
	donated := []int{0, 0}
	got := argMinDonor(preds, ways, donated, 2, 1, -1)
	if got != 1 {
		t.Errorf("donor = %d, want 1 (cheap post-donation cost)", got)
	}
}

func TestArgMinDonorRespectsCapAndFloor(t *testing.T) {
	m := NewCPIModel(1)
	m.Observe(4, 5, 0)
	m.Observe(8, 4, 0)
	preds := []predictor{
		newPredictor(m, spline.NaturalCubic, 5),
		newPredictor(m, spline.NaturalCubic, 5),
		newPredictor(m, spline.NaturalCubic, 5),
	}
	// Thread 0 at the floor, thread 1 already donated its cap.
	ways := []int{1, 8, 8}
	donated := []int{0, 2, 0}
	if got := argMinDonor(preds, ways, donated, 2, 1, -1); got != 2 {
		t.Errorf("donor = %d, want 2", got)
	}
	// Skip excluded.
	if got := argMinDonor(preds, ways, donated, 2, 1, 2); got != -1 {
		t.Errorf("donor = %d, want -1 when only candidate is skipped", got)
	}
}

func TestModelEngineExplorationUnfreezesFlatModel(t *testing.T) {
	// A thread whose model has only ever seen one allocation (flat
	// prediction) but is clearly the critical thread must still receive
	// a way through the exploration step.
	e := NewModelEngine()
	e.BootstrapIntervals = 1
	mon := fakeMon{ways: 32, threads: 4}
	cur := []int{8, 8, 8, 8}
	// Interval 0 (cold, skipped for models) bootstraps; all equal CPIs
	// keep the proportional rule at an even split.
	got := e.Decide(ivWith(0, []float64{5, 5, 5, 5}, cur), mon, cur)
	if got != nil {
		cur = got
	}
	// From now on thread 2 is persistently critical with a CPI that
	// never varies (so its model stays flat at a single allocation).
	for i := 1; i < 8; i++ {
		got = e.Decide(ivWith(i, []float64{4, 4, 9, 4}, cur), mon, cur)
		if got != nil {
			cur = got
		}
	}
	if cur[2] <= 8 {
		t.Errorf("exploration never grew the flat critical thread: %v", cur)
	}
}

func TestModelEngineHysteresisHoldsBalanced(t *testing.T) {
	e := NewModelEngine()
	mon := fakeMon{ways: 32, threads: 4}
	cur := []int{8, 8, 8, 8}
	var changed bool
	for i := 0; i < 10; i++ {
		// CPIs within 3% of each other: inside the hysteresis band.
		cpis := []float64{5.0, 5.05, 5.1, 4.95}
		got := e.Decide(ivWith(i, cpis, cur), mon, cur)
		if i >= 2 && got != nil {
			for j := range got {
				if got[j] != cur[j] {
					changed = true
				}
			}
			cur = got
		} else if got != nil {
			cur = got
		}
	}
	if changed {
		t.Errorf("balanced threads were repartitioned: %v", cur)
	}
}

func TestModelEnginePerDonorCapBoundsSingleDecision(t *testing.T) {
	e := NewModelEngine()
	e.BootstrapIntervals = 1
	mon := fakeMon{ways: 64, threads: 4}
	cur := []int{16, 16, 16, 16}
	got := e.Decide(ivWith(0, []float64{2, 2, 12, 2}, cur), mon, cur)
	if got != nil {
		cur = got
	}
	// Seed models with two intervals, then check one model-phase step.
	got = e.Decide(ivWith(1, []float64{2.5, 2.4, 11, 2.6}, cur), mon, cur)
	prev := append([]int(nil), cur...)
	if got != nil {
		copy(prev, cur)
		cur = got
	}
	got = e.Decide(ivWith(2, []float64{2.6, 2.5, 10.5, 2.4}, cur), mon, cur)
	if got == nil {
		return
	}
	for i := range got {
		if i == 2 {
			continue
		}
		if cur[i]-got[i] > 2 {
			t.Errorf("thread %d donated %d ways in one decision (cap 2): %v -> %v",
				i, cur[i]-got[i], cur, got)
		}
	}
}

// Property: regardless of CPI sequences, the engine's assignments are
// always valid, never starve a thread below MinWays, and never move
// more than MaxMovePerInterval ways per decision.
func TestQuickModelEngineBoundedMovement(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		e := NewModelEngine()
		e.MaxMovePerInterval = 4
		mon := fakeMon{ways: 32, threads: 4}
		cur := []int{8, 8, 8, 8}
		for i := 0; i < 15; i++ {
			cpis := make([]float64, 4)
			for t := range cpis {
				cpis[t] = 1 + r.Float64()*12
			}
			got := e.Decide(ivWith(i, cpis, cur), mon, cur)
			if got == nil {
				continue
			}
			if err := validAssignment(got, 32, 4); err != nil {
				return false
			}
			moved := 0
			for j := range got {
				if got[j] > cur[j] {
					moved += got[j] - cur[j]
				}
				if got[j] < 1 {
					return false
				}
			}
			// Bootstrap intervals may jump arbitrarily; model phase is
			// capped.
			if i >= 2 && moved > 4 {
				return false
			}
			cur = got
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// refModel is the map-backed CPI model the sorted point store replaced,
// kept as the reference for the store's observable behaviour.
type refModel struct {
	points map[int]float64
	stamp  map[int]int
	blend  float64
}

func (m *refModel) observe(ways int, cpi float64, interval int) {
	if cpi <= 0 || ways < 0 || math.IsNaN(cpi) || math.IsInf(cpi, 0) {
		return
	}
	if old, ok := m.points[ways]; ok {
		m.points[ways] = m.blend*cpi + (1-m.blend)*old
	} else {
		m.points[ways] = cpi
	}
	m.stamp[ways] = interval
}

func (m *refModel) prune(oldest int) {
	if len(m.points) <= 2 {
		return
	}
	type entry struct{ ways, stamp int }
	var entries []entry
	for w, s := range m.stamp {
		entries = append(entries, entry{w, s})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].stamp != entries[j].stamp {
			return entries[i].stamp > entries[j].stamp
		}
		return entries[i].ways < entries[j].ways
	})
	for i, e := range entries {
		if i >= 2 && e.stamp < oldest {
			delete(m.points, e.ways)
			delete(m.stamp, e.ways)
		}
	}
}

// TestCPIModelMatchesMapReference drives the sorted point store and the
// map-backed reference through the same random Observe/Prune/ResetTo
// sequence and requires identical points, CPIs (bit for bit) and stamps
// after every step.
func TestCPIModelMatchesMapReference(t *testing.T) {
	r := xrand.New(9)
	for trial := 0; trial < 200; trial++ {
		m := NewCPIModel(0.6)
		ref := &refModel{points: map[int]float64{}, stamp: map[int]int{}, blend: 0.6}
		for step := 0; step < 60; step++ {
			w := r.Intn(20) - 1
			cpi := 0.5 + 8*r.Float64()
			if r.Intn(10) == 0 {
				cpi = -1 // rejected
			}
			switch op := r.Intn(10); {
			case op < 6:
				m.Observe(w, cpi, step)
				ref.observe(w, cpi, step)
			case op < 9:
				oldest := step - r.Intn(12)
				m.Prune(oldest)
				ref.prune(oldest)
			default:
				m.ResetTo(w, cpi, step)
				ref.points, ref.stamp = map[int]float64{}, map[int]int{}
				ref.observe(w, cpi, step)
			}
			st := m.ModelState()
			if len(st.Points) != len(ref.points) || len(st.Stamps) != len(ref.stamp) {
				t.Fatalf("trial %d step %d: %v/%v, reference %v/%v", trial, step, st.Points, st.Stamps, ref.points, ref.stamp)
			}
			for w, c := range ref.points {
				if math.Float64bits(st.Points[w]) != math.Float64bits(c) || st.Stamps[w] != ref.stamp[w] {
					t.Fatalf("trial %d step %d: %v/%v, reference %v/%v", trial, step, st.Points, st.Stamps, ref.points, ref.stamp)
				}
			}
			ways, _ := m.Points()
			if !sort.IntsAreSorted(ways) {
				t.Fatalf("points out of way order: %v", ways)
			}
		}
	}
}
