package main

import (
	"fmt"
	"time"

	"intracache/internal/fault"
	"intracache/internal/service"
	"intracache/internal/service/loadgen"
)

// fleetConfig is the loadgen fleet both service workloads drive: 4
// threads, 16 ways, and a small seeded faulted fraction whose telemetry
// is noisy and lossy.
func fleetConfig(size string, seed uint64, batch int) loadgen.Config {
	apps := 2000
	if size == "tiny" {
		apps = 90
	}
	return loadgen.Config{
		Apps: apps, Threads: 4, Ways: 16, BatchSize: batch,
		Seed:          20260808 + uint64(variant(seed)),
		Fault:         fault.Plan{CPINoise: 0.3, DropRate: 0.1},
		FaultFraction: 0.05,
	}
}

// svcDecide drives the fleet straight into service.NewSharded(opts, 2,
// 2): each step ingests one 4-sample batch per app, then runs Tick(0).
// No wire, no deadline, so the decision stream is a pure function of
// the seed and the step count.
type svcDecide struct {
	o     options
	tr    *tracer
	fleet *loadgen.Fleet
	raw   *service.Sharded // the service itself, for the output checks
	svc   service.Backend  // raw, or raw behind the tracing wrapper
	steps int              // steps run so far (set-up steps included)

	dig *digester
	// digestSteps is how many leading steps the decision digest covers;
	// the run continues past it while time remains.
	digestSteps int
	digest      string
	// heapBase and heap are the live heap before set-up and when the
	// digest window closes: a fixed step, so the service holds the same
	// state on every run of a variant however fast the run goes.
	heapBase, heap float64
}

const (
	decideShards  = 2
	decideWorkers = 2
	// decideWarmSteps run in set-up after the session-fill step, so the
	// engines are past their bootstrap intervals when timing starts.
	decideWarmSteps = 4
	// minTicks is enough ticks for a p90 with ten ticks beyond it.
	minTicks = 100
)

func newSvcDecide(o options, tr *tracer) (bench, error) {
	b := &svcDecide{o: o, tr: tr, dig: newDigester(), digestSteps: 100}
	if o.size == "tiny" {
		b.digestSteps = 12
	}
	return b, nil
}

func (b *svcDecide) setup() error {
	b.heapBase = heapMB()
	fleet, err := loadgen.New(fleetConfig(b.o.size, b.o.seed, 4))
	if err != nil {
		return err
	}
	b.fleet = fleet
	b.raw = service.NewSharded(service.Options{}, decideShards, decideWorkers)
	b.svc = b.tr.wrap(b.raw, decideWorkers)
	for i := 0; i < 1+decideWarmSteps; i++ {
		if _, _, _, err := b.step(nil); err != nil {
			return err
		}
	}
	return nil
}

func (b *svcDecide) close() {}

// step runs one fleet step and digests its decisions while the digest
// window is open. It returns the ingest and tick times; generating the
// fleet's batches is the load's work, not the service's, and is not
// timed.
func (b *svcDecide) step(p *phase) (ingest, tick time.Duration, ds []service.Decision, err error) {
	batches := b.fleet.Step()
	t0 := time.Now()
	for _, batch := range batches {
		rep := b.svc.Ingest(batch)
		if p != nil {
			p.attempted++
			if rep.Rejected != "" || rep.Accepted != len(batch.Samples) {
				p.fail("step %d: %s: accepted %d of %d (%s %s)", b.steps+1, batch.App,
					rep.Accepted, len(batch.Samples), rep.Rejected, rep.Reason)
			}
		}
	}
	t1 := time.Now()
	ds = b.svc.Tick(0)
	ingest, tick = t1.Sub(t0), time.Since(t1)
	b.steps++
	if len(ds) != len(batches) {
		return ingest, tick, ds, fmt.Errorf("step %d: %d decisions for %d apps", b.steps, len(ds), len(batches))
	}
	if b.steps <= b.digestSteps {
		for _, x := range ds {
			b.dig.add("%s t=%d i=%d s=%d r=%s e=%d a=%v", x.App, x.Tick, x.Interval, x.Samples, x.Rung, x.Epoch, x.Alloc)
		}
		if b.steps == b.digestSteps {
			b.digest = b.dig.sum()
			b.heap = heapMB() // between steps, outside every timed span
		}
	}
	return ingest, tick, ds, nil
}

func (b *svcDecide) measure() (*phase, error) {
	p := &phase{e2e: make(map[string]float64)}
	b.tr.resetService()
	before := readMem()
	limit := time.Duration(b.o.seconds * float64(time.Second))
	var busy time.Duration
	var rawTickMs, rawRates, stepS samples
	processed := 0
	// A reference reading after every step, outside the timed spans;
	// the run's timings are scaled by the median reading.
	rc := refClock{k: cpuKernel}
	for busy < limit || b.steps < b.digestSteps || len(rawTickMs) < minTicks {
		ingest, tick, ds, err := b.step(p)
		if err != nil {
			return nil, err
		}
		rc.read()
		busy += ingest + tick
		rawTickMs.addDur(tick, time.Millisecond)
		stepS.addDur(ingest+tick, time.Second)
		n := 0
		for _, x := range ds {
			n += x.Samples
		}
		processed += n
		rawRates = append(rawRates, float64(n)/(ingest+tick).Seconds())
	}
	after := readMem()
	scale := rc.scale()
	tickMs := make(samples, len(rawTickMs))
	for k, ms := range rawTickMs {
		tickMs[k] = ms * scale
	}
	for _, s := range stepS {
		p.units = append(p.units, s*scale)
	}
	p.digest = b.digest
	p.pinned = true

	heap := b.heap
	sessions := len(b.raw.Apps())
	q := tailQuantile(len(tickMs))
	p.e2e["heap_mb"] = heap
	p.e2e["work_per_s"] = median(rawRates) / scale
	p.e2e["latency_p50_ms"] = median(tickMs)
	p.e2e["latency_tail_ms"] = quantile(tickMs, q)
	p.figure("samples_per_s", p.e2e["work_per_s"], "1/s", len(rawRates))
	p.figure("samples_per_s_raw", float64(processed)/busy.Seconds(), "1/s", processed)
	p.figure("tick_p50_ms", p.e2e["latency_p50_ms"], "ms", len(tickMs))
	p.figure(fmt.Sprintf("tick_p%.0f_ms", q*100), p.e2e["latency_tail_ms"], "ms", len(tickMs))
	p.figure("tick_p50_ms_raw", median(rawTickMs), "ms", len(rawTickMs))
	p.figure("reference_ms", rc.medianMs(), "ms", len(rc.readings))
	p.figure("heap_mb", heap, "MB", 0)
	p.figure("heap_bytes_per_session", (heap-b.heapBase)*1e6/float64(sessions), "B", sessions)

	checkRoundTrip(p, b.svc, b.raw, checkpointPath(b.o), decideShards, decideWorkers, b.tr, b.fleet)

	if b.tr != nil {
		l := newLayers()
		b.tr.serviceLayers(l)
		memLayers(l, before, after, processed)
		p.layers = l
	}
	return p, nil
}

// checkRoundTrip saves svc's checkpoint to path, restores it into a
// fresh service of the same shape (through the tracing wrapper when
// tracing, so both calls are timed) and checks that every app's
// allocation came back.
func checkRoundTrip(p *phase, svc service.Backend, raw *service.Sharded, path string,
	shards, workers int, tr *tracer, fleet *loadgen.Fleet) {
	defer removeCheckpoint(path)
	if err := svc.SaveCheckpoint(path); err != nil {
		p.fail("checkpoint save: %v", err)
		return
	}
	fresh := service.NewSharded(service.Options{}, shards, workers)
	if err := tr.wrap(fresh, workers).LoadCheckpoint(path); err != nil {
		p.fail("checkpoint load: %v", err)
		return
	}
	for _, a := range fleet.Apps {
		p.attempted++
		want, ok1 := raw.Allocation(a.Name)
		got, ok2 := fresh.Allocation(a.Name)
		if !ok1 || !ok2 || fmt.Sprint(want) != fmt.Sprint(got) {
			p.fail("checkpoint round trip: %s: %+v restored as %+v", a.Name, want, got)
		}
	}
}
