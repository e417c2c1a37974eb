package core

import (
	"math"
	"strings"
	"testing"

	"intracache/internal/spline"
)

// TestRestoreModelStateValidates feeds RestoreModelState snapshots that
// Observe could never have produced. Each must be refused with the model
// left as it was, and the error must surface through
// ModelEngine.RestoreEngineState.
func TestRestoreModelStateValidates(t *testing.T) {
	cases := []struct {
		name string
		st   CPIModelState
		want string
	}{
		{"NaN CPI", CPIModelState{Points: map[int]float64{4: math.NaN()}, Stamps: map[int]int{4: 1}}, "invalid CPI"},
		{"+Inf CPI", CPIModelState{Points: map[int]float64{4: math.Inf(1)}, Stamps: map[int]int{4: 1}}, "invalid CPI"},
		{"-Inf CPI", CPIModelState{Points: map[int]float64{4: math.Inf(-1)}, Stamps: map[int]int{4: 1}}, "invalid CPI"},
		{"zero CPI", CPIModelState{Points: map[int]float64{4: 0}, Stamps: map[int]int{4: 1}}, "invalid CPI"},
		{"negative CPI", CPIModelState{Points: map[int]float64{4: -2}, Stamps: map[int]int{4: 1}}, "invalid CPI"},
		{"negative ways", CPIModelState{Points: map[int]float64{-1: 3}, Stamps: map[int]int{-1: 1}}, "negative way count"},
		{"point without stamp", CPIModelState{Points: map[int]float64{4: 3, 8: 2}, Stamps: map[int]int{4: 1}}, "stamps"},
		{"stamp without point", CPIModelState{Points: map[int]float64{4: 3}, Stamps: map[int]int{4: 1, 8: 2}}, "stamps"},
		{"key sets differ", CPIModelState{Points: map[int]float64{4: 3, 8: 2}, Stamps: map[int]int{4: 1, 6: 2}}, "no stamp"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := NewCPIModel(0.6)
			m.Observe(2, 5, 0)
			m.Observe(6, 3, 1)
			err := m.RestoreModelState(c.st)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("RestoreModelState error = %v, want one mentioning %q", err, c.want)
			}
			if ways, cpis := m.Points(); len(ways) != 2 || ways[0] != 2 || cpis[1] != 3 {
				t.Errorf("refused restore changed the model: %v %v", ways, cpis)
			}

			e := NewModelEngine()
			st := ModelEngineState{Models: []CPIModelState{{}, c.st}, Interval: 5}
			if err := e.RestoreEngineState(st); err == nil {
				t.Fatal("RestoreEngineState accepted the snapshot")
			}
		})
	}
}

// TestRestoreModelStateRoundTrip checks a valid snapshot restores to the
// same points in way order, and that an empty one (a model that never
// observed anything) restores too.
func TestRestoreModelStateRoundTrip(t *testing.T) {
	m := NewCPIModel(0.6)
	for _, o := range []struct {
		w int
		c float64
		i int
	}{{8, 4, 1}, {2, 9, 2}, {12, 3.5, 3}, {8, 5, 4}} {
		m.Observe(o.w, o.c, o.i)
	}
	r := NewCPIModel(0.6)
	if err := r.RestoreModelState(m.ModelState()); err != nil {
		t.Fatal(err)
	}
	gw, gc := r.Points()
	ww, wc := m.Points()
	for i := range ww {
		if gw[i] != ww[i] || gc[i] != wc[i] {
			t.Fatalf("restored %v/%v, want %v/%v", gw, gc, ww, wc)
		}
	}
	if got, want := r.ModelState().Stamps[8], 4; got != want {
		t.Errorf("restored stamp %d, want %d", got, want)
	}
	if err := NewCPIModel(0.6).RestoreModelState(CPIModelState{}); err != nil {
		t.Errorf("empty snapshot refused: %v", err)
	}
}

// TestPredictorNilFitFallsBack covers a model whose points cannot be
// fitted (a non-finite point that bypassed validation): the predictor
// takes its single-point path with the caller's fallback instead of
// holding a nil interpolator that the next eval would dereference.
func TestPredictorNilFitFallsBack(t *testing.T) {
	m := NewCPIModel(0.6)
	m.pts = []modelPoint{{ways: 4, cpi: math.NaN(), stamp: 1}, {ways: 8, cpi: 2, stamp: 1}}
	if m.Fit(spline.NaturalCubic) != nil {
		t.Fatal("fit of a NaN point succeeded")
	}
	p := newPredictor(m, spline.NaturalCubic, 3.25)
	for _, w := range []int{1, 4, 6, 16} {
		if got := p.eval(w); got != 3.25 {
			t.Errorf("eval(%d) = %v, want the fallback 3.25", w, got)
		}
	}
}
