package main

import (
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"intracache/internal/service"
	"intracache/internal/sim"
	"intracache/internal/trace"
)

// Per-layer metrics printed by every traced run. A layer a workload
// never reaches reads 0 (a count of no work); README.md lists which
// layers each workload exercises and which end-to-end metric each
// layer metric should move.
var layerUnits = []struct{ name, unit string }{
	{"trace.busy_s", "s"},
	{"trace.calls", "count"},
	{"trace.ns_per_instr", "ns"},
	{"sim.self_s", "s"},
	{"sim.ns_per_instr", "ns"},
	{"sim.instructions", "count"},
	{"sim.wall_cycles", "count"},
	{"cache.l2_accesses", "count"},
	{"cache.l2_misses", "count"},
	{"cache.l2_hit_ratio", "ratio"},
	{"experiment.cell_s.shared", "s"},
	{"experiment.cell_s.throughput-ucp", "s"},
	{"experiment.cell_s.model-based", "s"},
	{"core.decisions", "count"},
	{"core.busy_s", "s"},
	{"core.decide_us_p50", "us"},
	{"engine.decision_us_p50", "us"},
	{"engine.decision_us_p99", "us"},
	{"engine.rung.model", "count"},
	{"engine.rung.proportional", "count"},
	{"engine.rung.static", "count"},
	{"engine.rung.last-good", "count"},
	{"runtime.mallocs_per_sample", "count"},
	{"runtime.bytes_per_sample", "B"},
	{"service.heap_bytes_per_session", "B"},
	{"tick.self_ms_p50", "ms"},
	{"tick.rounds", "count"},
	{"admission.ingest_us_p50", "us"},
	{"admission.rejected", "count"},
	{"admission.dropped", "count"},
	{"envelope.decode_us_p50", "us"},
	{"envelope.seal_us_p50", "us"},
	{"http.transport_ms_p50", "ms"},
	{"alloc.read_us_p50", "us"},
	{"checkpoint.save_ms_p50", "ms"},
	{"checkpoint.bytes", "B"},
	{"checkpoint.load_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"loadgen.late_ms_p50", "ms"},
	{"loadgen.late_ms_p99", "ms"},
	{"loadgen.sent", "count"},
	{"loadgen.ok", "count"},
	{"loadgen.failed", "count"},
	{"tracing.overhead_pct", "%"},
	{"tracing.resolution_pct", "%"},
}

// tracer collects per-layer measurements at the public seams the
// workloads call through: trace sources, the sim controller, the
// service backend and the HTTP handler. Spans inside the program are
// not recorded; each layer's time is measured around the call into it.
type tracer struct {
	// Simulator side: written by the single simulating goroutine.
	traceCalls, traceInstr uint64
	traceBusy              time.Duration
	coreBusy               time.Duration
	coreDecideUs           samples

	// Service side: written from handler, ticker and load goroutines.
	mu           sync.Mutex
	tickWorkers  int
	tickWallMs   samples
	tickSelfMs   samples
	decisionUs   samples
	rungs        map[string]int
	ingestUs     samples
	rejected     int
	dropped      int
	allocUs      samples
	saveMs       samples
	ckptBytes    int64
	loadMs       float64
	handlerNs    map[string]int64 // "kind/seq" → handler time
	decodeUs     samples
	sealUs       samples
	lastIngestNs atomic.Int64

	// nowBias is what a timed empty interval reads: the cost of the
	// clock reads themselves, subtracted from each sampled trace call.
	nowBias time.Duration
}

func newTracer() *tracer {
	return &tracer{rungs: make(map[string]int), handlerNs: make(map[string]int64),
		nowBias: clockBias()}
}

// clockBias measures the median reading of an empty timed interval.
func clockBias() time.Duration {
	const batches, reps = 7, 20000
	var per samples
	for i := 0; i < batches; i++ {
		var total time.Duration
		for j := 0; j < reps; j++ {
			t0 := time.Now()
			total += time.Since(t0)
		}
		per = append(per, float64(total)/reps)
	}
	return time.Duration(median(per))
}

// sampleEvery is how often sampledSource times a call. Timing every
// NextRun call roughly doubles simulation time, so one call in
// sampleEvery is timed and the busy time is scaled up by the call count.
const sampleEvery = 256

// sampledSource wraps one thread's generator: it counts every call and
// instruction, and times one call in sampleEvery.
type sampledSource struct {
	g         *trace.ThreadGen
	calls     uint64
	instr     uint64
	countdown int
	timed     uint64
	timedNs   int64
}

func (s *sampledSource) Next() trace.Instr {
	s.calls++
	s.instr++
	if s.countdown--; s.countdown > 0 {
		return s.g.Next()
	}
	s.countdown = sampleEvery
	t0 := time.Now()
	in := s.g.Next()
	s.timedNs += int64(time.Since(t0))
	s.timed++
	return in
}

func (s *sampledSource) NextRun(max uint64) (uint64, trace.Instr) {
	s.calls++
	var n uint64
	var in trace.Instr
	if s.countdown--; s.countdown > 0 {
		n, in = s.g.NextRun(max)
	} else {
		s.countdown = sampleEvery
		t0 := time.Now()
		n, in = s.g.NextRun(max)
		s.timedNs += int64(time.Since(t0))
		s.timed++
	}
	s.instr += n
	if in.IsMem {
		s.instr++
	}
	return n, in
}

func (s *sampledSource) SetPhase(wsScale, streamScale float64) { s.g.SetPhase(wsScale, streamScale) }

// busy estimates the source's total time from its timed sample, less
// the clock's own bias per timed call.
func (s *sampledSource) busy(bias time.Duration) time.Duration {
	if s.timed == 0 {
		return 0
	}
	per := float64(s.timedNs)/float64(s.timed) - float64(bias)
	if per < 0 {
		per = 0
	}
	return time.Duration(per * float64(s.calls))
}

// noteSources folds finished sources into the trace layer totals.
func (t *tracer) noteSources(srcs []*sampledSource) {
	for _, s := range srcs {
		t.traceCalls += s.calls
		t.traceInstr += s.instr
		t.traceBusy += s.busy(t.nowBias)
	}
}

// timedController times every OnInterval of the wrapped controller.
type timedController struct {
	inner sim.Controller
	tr    *tracer
}

func (c *timedController) OnInterval(iv sim.IntervalStats, mon sim.Monitors) []int {
	t0 := time.Now()
	out := c.inner.OnInterval(iv, mon)
	d := time.Since(t0)
	c.tr.coreBusy += d
	c.tr.coreDecideUs.addDur(d, time.Microsecond)
	return out
}

// ControllerHealth forwards the wrapped controller's health, so the
// simulator records the same Result.ControllerHealth with or without
// the wrapper.
func (c *timedController) ControllerHealth() string {
	if h, ok := c.inner.(sim.HealthReporter); ok {
		return h.ControllerHealth()
	}
	return ""
}

// tracedBackend wraps the service backend handed to service.NewServer
// (or driven directly by svc-decide) and times each call into it.
type tracedBackend struct {
	service.Backend
	tr *tracer
}

func (b *tracedBackend) Ingest(batch service.Batch) service.IngestReply {
	t0 := time.Now()
	rep := b.Backend.Ingest(batch)
	d := time.Since(t0)
	b.tr.lastIngestNs.Store(int64(d))
	b.tr.mu.Lock()
	b.tr.ingestUs.addDur(d, time.Microsecond)
	if rep.Rejected != "" {
		b.tr.rejected++
	}
	b.tr.dropped += rep.Dropped
	b.tr.mu.Unlock()
	return rep
}

func (b *tracedBackend) Tick(budget time.Duration) []service.Decision {
	t0 := time.Now()
	ds := b.Backend.Tick(budget)
	wall := time.Since(t0)
	var lat time.Duration
	b.tr.mu.Lock()
	for _, d := range ds {
		lat += d.Latency
		b.tr.rungs[d.Rung]++
		if d.Rung != service.RungLastGood {
			b.tr.decisionUs.addDur(d.Latency, time.Microsecond)
		}
	}
	b.tr.tickWallMs.addDur(wall, time.Millisecond)
	b.tr.tickSelfMs.addDur(wall-lat/time.Duration(b.tr.tickWorkers), time.Millisecond)
	b.tr.mu.Unlock()
	return ds
}

func (b *tracedBackend) Allocation(app string) (service.Allocation, bool) {
	t0 := time.Now()
	a, ok := b.Backend.Allocation(app)
	d := time.Since(t0)
	b.tr.mu.Lock()
	b.tr.allocUs.addDur(d, time.Microsecond)
	b.tr.mu.Unlock()
	return a, ok
}

func (b *tracedBackend) SaveCheckpoint(path string) error {
	t0 := time.Now()
	err := b.Backend.SaveCheckpoint(path)
	d := time.Since(t0)
	size := checkpointBytes(path)
	b.tr.mu.Lock()
	b.tr.saveMs.addDur(d, time.Millisecond)
	b.tr.ckptBytes = size
	b.tr.mu.Unlock()
	return err
}

func (b *tracedBackend) LoadCheckpoint(path string) error {
	t0 := time.Now()
	err := b.Backend.LoadCheckpoint(path)
	b.tr.mu.Lock()
	b.tr.loadMs = float64(time.Since(t0)) / float64(time.Millisecond)
	b.tr.mu.Unlock()
	return err
}

// wrap returns svc behind a tracedBackend, or svc itself when t is nil
// (the untraced run). workers is the tick worker count, used to turn
// summed decision latency into the tick's own time.
func (t *tracer) wrap(svc service.Backend, workers int) service.Backend {
	if t == nil {
		return svc
	}
	t.tickWorkers = workers
	return &tracedBackend{Backend: svc, tr: t}
}

// resetService drops the service-side samples taken during set-up, so
// the layer metrics cover the timed phase only.
func (t *tracer) resetService() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tickWallMs, t.tickSelfMs, t.decisionUs = nil, nil, nil
	t.rungs = make(map[string]int)
	t.ingestUs, t.allocUs, t.saveMs, t.decodeUs, t.sealUs = nil, nil, nil, nil, nil
	t.rejected, t.dropped = 0, 0
	t.handlerNs = make(map[string]int64)
}

// seqHeader carries a client request's sequence number so the handler
// wrapper's timing can be matched to the client's.
const seqHeader = "X-Perfbench-Seq"

// tracedHandler times the HTTP handler. For /ingest it also splits off
// the envelope layer: handler time minus the backend Ingest time of the
// same request (one ingest connection, so ingests never interleave).
type tracedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(t0)
	seq := r.Header.Get(seqHeader)
	if seq == "" {
		return
	}
	kind := r.URL.Path
	h.tr.mu.Lock()
	h.tr.handlerNs[kind+"/"+seq] = int64(d)
	if kind == "/ingest" {
		h.tr.decodeUs.addDur(d-time.Duration(h.tr.lastIngestNs.Load()), time.Microsecond)
	}
	h.tr.mu.Unlock()
}

// handlerTime returns the handler time recorded for one request.
func (t *tracer) handlerTime(kind string, seq int) (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ns, ok := t.handlerNs[kind+"/"+strconv.Itoa(seq)]
	return time.Duration(ns), ok
}

// memSnap is a runtime.MemStats sample for deltas over a timed phase.
type memSnap struct {
	mallocs, bytes uint64
	gcs            uint32
	pauseNs        uint64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{ms.Mallocs, ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs}
}

// memLayers fills the runtime.* layer metrics from a phase's deltas;
// samples is the number of service samples processed (0 when the
// workload processes none).
func memLayers(l map[string]float64, before, after memSnap, samples int) {
	l["runtime.gc_cycles"] = float64(after.gcs - before.gcs)
	l["runtime.gc_pause_ms"] = float64(after.pauseNs-before.pauseNs) / 1e6
	if samples > 0 {
		l["runtime.mallocs_per_sample"] = float64(after.mallocs-before.mallocs) / float64(samples)
		l["runtime.bytes_per_sample"] = float64(after.bytes-before.bytes) / float64(samples)
	}
}

// newLayers returns a layer map with every per-layer metric at 0.
func newLayers() map[string]float64 {
	l := make(map[string]float64, len(layerUnits))
	for _, m := range layerUnits {
		l[m.name] = 0
	}
	return l
}

// serviceLayers fills the service-side layer metrics from the tracer.
func (t *tracer) serviceLayers(l map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l["engine.decision_us_p50"] = median(t.decisionUs)
	l["engine.decision_us_p99"] = quantile(t.decisionUs, 0.99)
	l["engine.rung.model"] = float64(t.rungs["model"])
	l["engine.rung.proportional"] = float64(t.rungs["proportional"])
	l["engine.rung.static"] = float64(t.rungs["static"])
	l["engine.rung.last-good"] = float64(t.rungs[service.RungLastGood])
	l["tick.self_ms_p50"] = median(t.tickSelfMs)
	l["tick.rounds"] = float64(len(t.tickWallMs))
	l["admission.ingest_us_p50"] = median(t.ingestUs)
	l["admission.rejected"] = float64(t.rejected)
	l["admission.dropped"] = float64(t.dropped)
	l["alloc.read_us_p50"] = median(t.allocUs)
	l["checkpoint.save_ms_p50"] = median(t.saveMs)
	l["checkpoint.bytes"] = float64(t.ckptBytes)
	l["checkpoint.load_ms"] = t.loadMs
	l["envelope.decode_us_p50"] = median(t.decodeUs)
	l["envelope.seal_us_p50"] = median(t.sealUs)
}
