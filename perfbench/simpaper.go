package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"intracache/internal/cache"
	"intracache/internal/core"
	"intracache/internal/experiment"
	"intracache/internal/sim"
	"intracache/internal/trace"
	"intracache/internal/workload"
)

// simPolicies are the three L2 uses of the paper's Figs. 20/21: global
// LRU, UMON-fed partitions and model-driven partitions.
var simPolicies = []core.Policy{core.PolicyShared, core.PolicyThroughputUCP, core.PolicyModelBased}

// simCell is one (benchmark, policy) run of the fixed cell set.
type simCell struct {
	prof workload.Profile
	pol  core.Policy
}

// simPaper runs the nine built-in benchmarks under the three policies
// at DefaultConfig (with simSections sections), BySections, one cell at
// a time. A run is as many whole passes over the 27 cells as fit in
// --seconds, and at least one; the seed picks the input variant (the
// trace seed) and the cell order.
type simPaper struct {
	o     options
	tr    *tracer
	cfg   experiment.Config
	cells []simCell
}

const (
	// simSections keeps one pass near 5-7 s on a 2-CPU host, so that a
	// 30-s run fits four passes: with one, a burst of other tenants'
	// load inside a cell stays in the figures.
	simSections = 10
	// heapInterval is the interval of the heap cell (the first
	// benchmark under model-based, the policy with the most state) at
	// which heap_mb is read, with that cell's simulator alive: the live
	// heap then, less the live heap just before the cell started, so
	// the results the harness has kept from earlier cells, which depend
	// on the seed's cell order, cancel out.
	heapInterval = 4
)

func simConfig(size string, seed uint64) experiment.Config {
	cfg := experiment.DefaultConfig()
	cfg.Sections = simSections
	if size == "tiny" {
		cfg.SectionInstructions = 4_000
		cfg.IntervalInstructions = 16_000
		cfg.Sections = 6
	}
	cfg.Seed += uint64(variant(seed))
	return cfg
}

func newSimPaper(o options, tr *tracer) (bench, error) {
	b := &simPaper{o: o, tr: tr, cfg: simConfig(o.size, o.seed)}
	for _, p := range workload.Profiles() {
		for _, pol := range simPolicies {
			b.cells = append(b.cells, simCell{p, pol})
		}
	}
	rng := rand.New(rand.NewSource(int64(o.seed)))
	rng.Shuffle(len(b.cells), func(i, j int) { b.cells[i], b.cells[j] = b.cells[j], b.cells[i] })
	return b, nil
}

// setup builds every benchmark's generators once, which fills the
// process-wide Zipf tables, and runs one short warm-up cell. The
// warm-up cell is the same on every seed (not the first cell of the
// seed's order), so that setup_s does not depend on the order.
func (b *simPaper) setup() error {
	for _, p := range workload.Profiles() {
		if _, err := p.Generators(b.cfg.NumThreads, b.cfg.LineBytes, b.cfg.Seed); err != nil {
			return err
		}
	}
	warm := b.cfg
	warm.Sections = b.cfg.Sections/10 + 1
	_, err := experiment.RunOne(warm, workload.Profiles()[0], core.PolicyModelBased, experiment.BySections)
	return err
}

func (b *simPaper) close() {}

// simPass is what one pass over the cell set measured, cells in run
// order: raw host times, and the pass's reference readings, one after
// every cell.
type simPass struct {
	instr      uint64
	cellS      []float64
	intervalMs samples
	rc         refClock
	digest     string
	results    []sim.Result
	heapMB     float64 // read in the heap cell, first pass only
}

func (b *simPaper) measure() (*phase, error) {
	p := &phase{e2e: make(map[string]float64)}
	before := readMem()
	var passes []simPass
	start := time.Now()
	for {
		pass := b.pass(p, len(passes) == 0)
		if len(passes) > 0 && pass.digest != passes[0].digest {
			p.fail("pass %d digest %s differs from pass 1 digest %s", len(passes)+1, pass.digest, passes[0].digest)
		}
		passes = append(passes, pass)
		if b.o.passes > 0 {
			if len(passes) == b.o.passes {
				break
			}
			continue
		}
		// Another whole pass only if it fits in --seconds at the pace
		// of the passes so far.
		elapsed := time.Since(start)
		if elapsed+elapsed/time.Duration(len(passes)) > time.Duration(b.o.seconds*float64(time.Second)) {
			break
		}
	}
	after := readMem()

	// Each pass is scaled by its own reference readings (27, one per
	// cell, so their median is steady), which follows a slow stretch
	// that starts or ends inside the run. Each cell and each interval
	// then takes its median over the passes: the passes run the same
	// work in the same order, so index k is the same cell or interval
	// in every pass. The median, unlike the fastest pass, does not pick
	// out the moments when the host ran briefly faster than its
	// readings show.
	var cellRaw, cellScaled, ivScaled [][]float64
	var readings refClock
	for _, ps := range passes {
		scale := ps.rc.scale()
		readings.k = ps.rc.k
		readings.readings = append(readings.readings, ps.rc.readings...)
		for k, sec := range ps.cellS {
			if len(cellRaw) <= k {
				cellRaw, cellScaled = append(cellRaw, nil), append(cellScaled, nil)
			}
			cellRaw[k] = append(cellRaw[k], sec)
			cellScaled[k] = append(cellScaled[k], sec*scale)
		}
		for k, ms := range ps.intervalMs {
			if len(ivScaled) <= k {
				ivScaled = append(ivScaled, nil)
			}
			ivScaled[k] = append(ivScaled[k], ms*scale)
		}
	}
	first := passes[0]
	allRaw := 0.0 // every pass, for the traced layer split
	for _, ps := range passes {
		for _, sec := range ps.cellS {
			allRaw += sec
		}
	}
	rawTotal, scaledTotal := 0.0, 0.0
	cellS := make([]float64, len(cellScaled))
	for k := range cellScaled {
		rawTotal += median(cellRaw[k])
		cellS[k] = median(cellScaled[k])
		scaledTotal += cellS[k]
	}
	intervalMs := make(samples, len(ivScaled))
	for k := range ivScaled {
		intervalMs[k] = median(ivScaled[k])
	}
	mips := float64(first.instr) / scaledTotal
	q := tailQuantile(len(intervalMs))
	p.e2e["heap_mb"] = first.heapMB
	p.e2e["work_per_s"] = mips
	p.e2e["latency_p50_ms"] = median(intervalMs)
	p.e2e["latency_tail_ms"] = quantile(intervalMs, q)
	p.digest = first.digest
	p.pinned = true
	p.passes = len(passes)
	p.units = cellS
	p.figure("passes", float64(len(passes)), "count", 0)
	p.figure("sim_mips", mips/1e6, "Minstr/s", len(cellS))
	p.figure("sim_mips_raw", float64(first.instr)/rawTotal/1e6, "Minstr/s", len(cellS))
	p.figure("interval_p50_ms", p.e2e["latency_p50_ms"], "ms", len(intervalMs))
	p.figure(fmt.Sprintf("interval_p%.0f_ms", q*100), p.e2e["latency_tail_ms"], "ms", len(intervalMs))
	p.figure("reference_ms", readings.medianMs(), "ms", len(readings.readings))
	p.figure("heap_mb", p.e2e["heap_mb"], "MB", 0)

	if b.tr != nil {
		l := newLayers()
		t := b.tr
		instr := float64(first.instr) * float64(len(passes))
		l["trace.busy_s"] = t.traceBusy.Seconds()
		l["trace.calls"] = float64(t.traceCalls)
		l["trace.ns_per_instr"] = float64(t.traceBusy) / float64(t.traceInstr)
		self := allRaw - t.traceBusy.Seconds() - t.coreBusy.Seconds()
		l["sim.self_s"] = self
		l["sim.ns_per_instr"] = self * 1e9 / instr
		var acc, miss, wallCycles uint64
		for _, r := range first.results {
			tot := r.L2Stats.Totals()
			acc += tot.Accesses
			miss += tot.Misses
			wallCycles += r.WallCycles
		}
		l["sim.instructions"] = float64(first.instr)
		l["sim.wall_cycles"] = float64(wallCycles)
		l["cache.l2_accesses"] = float64(acc)
		l["cache.l2_misses"] = float64(miss)
		l["cache.l2_hit_ratio"] = 1 - float64(miss)/float64(acc)
		for k, c := range b.cells {
			l["experiment.cell_s."+c.pol.String()] += cellS[k]
		}
		l["core.decisions"] = float64(len(t.coreDecideUs))
		l["core.busy_s"] = t.coreBusy.Seconds()
		l["core.decide_us_p50"] = median(t.coreDecideUs)
		memLayers(l, before, after, 0)
		p.layers = l
	}
	return p, nil
}

// pass runs every cell once, in the seed's order, and digests the
// results in canonical (benchmark, policy) order. A reference reading
// follows every cell; the first pass also reads the heap in the heap
// cell.
func (b *simPaper) pass(p *phase, first bool) simPass {
	ps := simPass{rc: refClock{k: simKernel}}
	byCell := make(map[string]sim.Result, len(b.cells))
	heapCell := simCell{workload.Profiles()[0], core.PolicyModelBased}
	var prev time.Time
	var excluded time.Duration // heap reading, kept out of the cell's time
	var heapBase float64
	var cellMs samples
	readHeap := false
	hook := func(iv int) error {
		now := time.Now()
		cellMs.addDur(now.Sub(prev), time.Millisecond)
		prev = now
		if readHeap && iv == heapInterval {
			ps.heapMB = heapMB() - heapBase
			prev = time.Now()
			excluded = prev.Sub(now)
		}
		return nil
	}
	for _, c := range b.cells {
		p.attempted++
		readHeap = first && c.prof.Name == heapCell.prof.Name && c.pol == heapCell.pol
		excluded, cellMs = 0, cellMs[:0]
		if readHeap {
			heapBase = heapMB()
		}
		cellStart := time.Now()
		prev = cellStart
		res, err := b.runCell(c, hook)
		ps.cellS = append(ps.cellS, (time.Since(cellStart) - excluded).Seconds())
		ps.intervalMs = append(ps.intervalMs, cellMs...)
		ps.rc.read()
		if err != nil {
			p.fail("%s/%s: %v", c.prof.Name, c.pol, err)
			continue
		}
		ps.instr += res.TotalInstr
		byCell[c.prof.Name+"/"+c.pol.String()] = res
		ps.results = append(ps.results, res)
	}
	d := newDigester()
	for _, prof := range workload.Profiles() {
		for _, pol := range simPolicies {
			r := byCell[prof.Name+"/"+pol.String()]
			d.add("%s/%s wall=%d instr=%d barriers=%d intervals=%d threads=%v/%v/%v l2=%v final=%v",
				prof.Name, pol, r.WallCycles, r.TotalInstr, r.Barriers, len(r.Intervals),
				r.ThreadCycles, r.ThreadInstr, r.ThreadStall, r.L2Stats.Threads, r.FinalTargets)
		}
	}
	ps.digest = d.sum()
	return ps
}

// runCell simulates one cell. Untraced, it is experiment.RunOneCtx.
// Traced, it builds the same simulator from public sim.Params with the
// trace sources and the controller wrapped; the digest check proves the
// two paths simulate the same thing.
func (b *simPaper) runCell(c simCell, hook sim.IntervalHook) (sim.Result, error) {
	ctx := context.Background()
	if b.tr == nil {
		run, err := experiment.RunOneCtx(ctx, b.cfg, c.prof, c.pol, experiment.BySections, hook)
		return run.Result, err
	}
	gens, err := c.prof.Generators(b.cfg.NumThreads, b.cfg.LineBytes, b.cfg.Seed)
	if err != nil {
		return sim.Result{}, err
	}
	ctl, _, err := core.ControllerFor(c.pol)
	if err != nil {
		return sim.Result{}, err
	}
	if ctl != nil {
		ctl = &timedController{inner: ctl, tr: b.tr}
	}
	wrapped := make([]*sampledSource, len(gens))
	srcs := make([]trace.Source, len(gens))
	for i, g := range gens {
		wrapped[i] = &sampledSource{g: g, countdown: sampleEvery}
		srcs[i] = wrapped[i]
	}
	s, err := sim.New(simParams(b.cfg, c.pol), srcs, ctl, c.prof.PhaseFunc(b.cfg.NumThreads))
	if err != nil {
		return sim.Result{}, err
	}
	res, err := s.RunSectionsContext(ctx, b.cfg.Sections, hook)
	b.tr.noteSources(wrapped)
	return res, err
}

// simParams mirrors the experiment package's mapping from Config to
// sim.Params for the way-partitioned geometry the benchmark runs.
func simParams(c experiment.Config, pol core.Policy) sim.Params {
	p := sim.Params{
		NumThreads: c.NumThreads,
		L1: cache.Config{SizeBytes: c.L1KB * 1024, Ways: c.L1Ways,
			LineBytes: c.LineBytes, NumThreads: 1},
		L2: cache.Config{SizeBytes: c.L2KB * 1024, Ways: c.L2Ways,
			LineBytes: c.LineBytes, NumThreads: c.NumThreads},
		L2Org:                core.L2OrgFor(pol),
		BaseCycles:           c.BaseCycles,
		L2HitCycles:          c.L2HitCycles,
		MemCycles:            c.MemCycles,
		SectionInstructions:  c.SectionInstructions,
		IntervalInstructions: c.IntervalInstructions,
	}
	if pol.NeedsUMON() {
		p.UMONSampleStride = c.UMONStride
	}
	return p
}
