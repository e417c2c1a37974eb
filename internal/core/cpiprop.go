package core

import (
	"intracache/internal/sim"
)

// CPIProportionalEngine implements the paper's Sec. VI-A scheme
// (Fig. 12): at the end of each interval, thread t's way count is
//
//	partition_t = CPI_t / ΣCPI_i × TotalCacheWays
//
// so the slowest thread — the critical path thread — receives the
// largest share. The scheme is deliberately naive: it assumes CPI is a
// usable proxy for cache need without knowing how CPI responds to
// ways; the ModelEngine removes that assumption.
type CPIProportionalEngine struct {
	// MinWays is the smallest allocation any thread can receive
	// (default 1), preventing way starvation of cache-light threads.
	MinWays int
}

// NewCPIProportionalEngine returns the engine with the default
// one-way floor.
func NewCPIProportionalEngine() *CPIProportionalEngine {
	return &CPIProportionalEngine{MinWays: 1}
}

// Name implements Engine.
func (e *CPIProportionalEngine) Name() string { return "cpi-proportional" }

// Decide implements Engine.
func (e *CPIProportionalEngine) Decide(iv sim.IntervalStats, mon sim.Monitors, _ []int) []int {
	var buf [stackThreads]float64
	weights := scratch(buf[:], len(iv.Threads))
	for t, ts := range iv.Threads {
		weights[t] = ts.CPI()
	}
	return proportionalShares(weights, mon.Ways(), e.MinWays)
}
