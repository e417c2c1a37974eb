package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"intracache/internal/service"
	"intracache/internal/service/loadgen"
)

// svcHTTP is cmd/partitiond's serve path over loopback, at its
// default settings: one shard behind service.NewServer, a daemon
// ticker that calls Tick every period and checkpoints inline every
// httpCkptEvery ticks, and the drain at the end (a final Tick(0) and a
// checkpoint). The load is a closed loop of 1-sample POST /ingest
// batches on one connection, each sent as soon as the last is answered,
// and an open loop of GET /alloc reads at a fixed rate on a second.
//
// The ingest stream is closed-loop because only that shape scales with
// the loopback echo reference (refclock.go): across a stretch where
// other tenants slowed the echo by 26%, closed-loop ingest throughput
// and median time, scaled, stayed within 8% and 4%, while an open loop
// at 2000 requests/s slowed by 46% at its median, so that its scaled
// median still moved by 15%. The open-loop reads keep the due-time
// timing and the generator's lateness in the report.
type svcHTTP struct {
	o     options
	tr    *tracer
	fleet *loadgen.Fleet
	order []int // seeded request order over the fleet
	index map[string]int
	raw   *service.Sharded
	svc   service.Backend
	ckpt  string

	srv       *http.Server
	serveDone chan error
	url       string
	ingestC   *http.Client
	allocC    *http.Client
	echo      *echo // the reference kernel's loopback echo

	tickStop chan struct{}
	tickDone chan struct{}
	// recording gates what the ticker records: only ticks inside the
	// timed phase count. The ticker owns everything below until
	// tickDone is closed.
	recording atomic.Bool
	base      time.Time
	events    []tickEvent
	tickMs    samples
	tickRates samples // decided samples per second of tick, per tick
	decided   int
	ckptErr   error
	period    time.Duration
	rounds    int // heapRounds, or tinyHeapRounds for the tiny size

	// Per app, the send time (since base) of every sample it sent; -1
	// for the set-up fill sample, sent before base.
	due [][]time.Duration
}

// tickEvent records that a tick ending at end published app's decision
// over its first interval samples.
type tickEvent struct {
	app      int
	interval int
	end      time.Duration
}

// The daemon's settings are cmd/partitiond's defaults: -tick 1s,
// -deadline 0 (unbounded) and -checkpoint-every 60. At 1-s ticks no
// periodic checkpoint falls inside a run shorter than a minute; the
// drain checkpoint at the end is the one every run saves and times.
const (
	httpTickPeriod   = time.Second
	httpTickDeadline = 0
	httpCkptEvery    = 60 // ticks
	allocRate        = 200
	// httpTail is the gated ingest tail quantile.
	httpTail = 0.9
	// heapRounds is how many samples per app the replay has taken when
	// heap_mb and the digest are read; a 5-s run sends more than that.
	// Tiny test runs, which may run under the race detector at a tenth
	// of the speed, use tinyHeapRounds.
	heapRounds     = 20
	tinyHeapRounds = 4
	// refEvery is how many /alloc reads apart the alloc stream takes a
	// reference reading (50 a second), in the gap before its next read.
	refEvery = 4
)

func newSvcHTTP(o options, tr *tracer) (bench, error) {
	b := &svcHTTP{o: o, tr: tr, index: make(map[string]int), period: httpTickPeriod, rounds: heapRounds}
	if o.size == "tiny" {
		b.rounds = tinyHeapRounds
		// A 1-s test run then has ticks to time, and each tick finds
		// fewer queued samples per app than one tick takes.
		b.period = 20 * time.Millisecond
	}
	return b, nil
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}

// setup builds the fleet, starts the server and the ticker, and fills
// the session table with one sample per app over HTTP.
func (b *svcHTTP) setup() error {
	fleet, err := loadgen.New(fleetConfig(b.o.size, b.o.seed, 1))
	if err != nil {
		return err
	}
	b.fleet = fleet
	b.order = rand.New(rand.NewSource(int64(b.o.seed))).Perm(len(fleet.Apps))
	b.due = make([][]time.Duration, len(fleet.Apps))
	for i, a := range fleet.Apps {
		b.index[a.Name] = i
	}
	b.raw = service.NewSharded(service.Options{}, 1, 1)
	b.svc = b.tr.wrap(b.raw, 1)
	b.ckpt = checkpointPath(b.o)
	server, err := service.NewServer(b.svc)
	if err != nil {
		return err
	}
	var handler http.Handler = server
	if b.tr != nil {
		handler = &tracedHandler{next: server, tr: b.tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.url = "http://" + ln.Addr().String()
	b.srv = &http.Server{Handler: handler}
	b.serveDone = make(chan error, 1)
	go func() { b.serveDone <- b.srv.Serve(ln) }()
	server.SetReady(true)
	b.ingestC, b.allocC = newClient(), newClient()
	if b.echo, err = startEcho(); err != nil {
		return err
	}

	b.tickStop, b.tickDone = make(chan struct{}), make(chan struct{})
	go b.ticker()

	for _, a := range fleet.Apps {
		if _, err := b.post(a.NextBatch(1), -1); err != nil {
			return fmt.Errorf("session fill: %s: %w", a.Name, err)
		}
		b.due[b.index[a.Name]] = append(b.due[b.index[a.Name]], -1)
	}
	return nil
}

// ticker is the daemon loop: Tick(deadline) every period, checkpoint
// inline every httpCkptEvery ticks, as cmd/partitiond's serve does.
func (b *svcHTTP) ticker() {
	defer close(b.tickDone)
	tk := time.NewTicker(b.period)
	defer tk.Stop()
	for n := 1; ; n++ {
		select {
		case <-b.tickStop:
			return
		case <-tk.C:
		}
		t0 := time.Now()
		ds := b.svc.Tick(httpTickDeadline)
		end := time.Now()
		if b.recording.Load() {
			b.tickMs.addDur(end.Sub(t0), time.Millisecond)
			decided := 0
			for _, d := range ds {
				decided += d.Samples
				if d.Samples > 0 {
					b.events = append(b.events, tickEvent{b.index[d.App], d.Interval, end.Sub(b.base)})
				}
			}
			if decided > 0 {
				b.decided += decided
				b.tickRates = append(b.tickRates, float64(decided)/end.Sub(t0).Seconds())
			}
		}
		if n%httpCkptEvery == 0 {
			if err := b.svc.SaveCheckpoint(b.ckpt); err != nil && b.ckptErr == nil {
				b.ckptErr = err
			}
		}
	}
}

func (b *svcHTTP) stopTicker() {
	if b.tickStop != nil {
		close(b.tickStop)
		<-b.tickDone
		b.tickStop = nil
	}
}

// stopServer shuts the HTTP server down and waits for it.
func (b *svcHTTP) stopServer() {
	if b.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		b.srv.Shutdown(ctx) // best effort: the run's outcome is already decided
		cancel()
		<-b.serveDone
		b.ingestC.CloseIdleConnections()
		b.allocC.CloseIdleConnections()
		b.srv = nil
	}
}

func (b *svcHTTP) close() {
	b.stopTicker()
	b.stopServer()
	if b.echo != nil {
		b.echo.close()
	}
	removeCheckpoint(b.ckpt)
}

// post sends one batch and checks the reply. seq < 0 sends no sequence
// header (set-up traffic).
func (b *svcHTTP) post(batch service.Batch, seq int) (time.Duration, error) {
	var t0 time.Time
	if b.tr != nil {
		t0 = time.Now()
	}
	payload, err := service.SealJSON(batch)
	if err != nil {
		return 0, err
	}
	if b.tr != nil && seq >= 0 {
		b.tr.mu.Lock()
		b.tr.sealUs.addDur(time.Since(t0), time.Microsecond)
		b.tr.mu.Unlock()
	}
	req, err := http.NewRequest(http.MethodPost, b.url+"/ingest", bytes.NewReader(payload))
	if err != nil {
		return 0, err
	}
	return b.send(b.ingestC, req, seq, func(status int, body []byte) error {
		var rep service.IngestReply
		if err := service.UnsealJSON(body, &rep); err != nil {
			return fmt.Errorf("status %d, reply: %v", status, err)
		}
		if status/100 != 2 || rep.Rejected != "" || rep.Accepted != len(batch.Samples) {
			return fmt.Errorf("status %d, accepted %d of %d (%s %s)", status,
				rep.Accepted, len(batch.Samples), rep.Rejected, rep.Reason)
		}
		return nil
	})
}

// read fetches one app's allocation and checks it sums to its ways.
func (b *svcHTTP) read(app string, seq int) (time.Duration, error) {
	req, err := http.NewRequest(http.MethodGet, b.url+"/alloc?app="+app, nil)
	if err != nil {
		return 0, err
	}
	return b.send(b.allocC, req, seq, func(status int, body []byte) error {
		if status != http.StatusOK {
			return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
		}
		var a service.Allocation
		if err := json.Unmarshal(body, &a); err != nil {
			return err
		}
		total := 0
		for _, w := range a.Alloc {
			total += w
		}
		if a.App != app || len(a.Alloc) != a.Threads || total != a.Ways {
			return fmt.Errorf("allocation %+v does not split its %d ways", a, a.Ways)
		}
		return nil
	})
}

// send does one request and returns the client-observed time from
// sending to the end of the response body.
func (b *svcHTTP) send(c *http.Client, req *http.Request, seq int, check func(int, []byte) error) (time.Duration, error) {
	if b.tr != nil && seq >= 0 {
		req.Header.Set(seqHeader, strconv.Itoa(seq))
	}
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	return d, check(resp.StatusCode, body)
}

// waitUntil blocks until t: a nanosleep to just short of it, then a
// spin. Go's timers round sub-millisecond sleeps up to a millisecond,
// which would make the generator later than the service is slow.
func waitUntil(t time.Time) {
	const spin = 100 * time.Microsecond
	if d := time.Until(t); d > spin {
		ts := syscall.NsecToTimespec(int64(d - spin))
		syscall.Nanosleep(&ts, nil) // an early wake-up is absorbed by the spin
	}
	for time.Now().Before(t) {
	}
}

// stream is one request stream's record, in send order.
type stream struct {
	// latMs is from due time for an open loop and from sending for a
	// closed one; lateMs is send start minus due time (open loop only).
	latMs, lateMs samples
	clientNs      []int64 // per seq: client-observed request time
	window        []int   // per seq: the 1-s window it was due or sent in
	sent, ok      int
}

func (s *stream) record(i int, d time.Duration, err error, p *phase, mu *sync.Mutex) {
	s.sent++
	s.clientNs = append(s.clientNs, int64(d))
	if err != nil {
		mu.Lock()
		p.fail("request %d: %v", i, err)
		mu.Unlock()
		return
	}
	s.ok++
}

// openLoop sends n requests, request i due at base + i/rate, and
// returns the stream's record. do performs request i.
func (b *svcHTTP) openLoop(n, rate int, do func(i int, due time.Time) (time.Duration, error), p *phase, mu *sync.Mutex) *stream {
	s := &stream{}
	period := time.Second / time.Duration(rate)
	for i := 0; i < n; i++ {
		due := b.base.Add(time.Duration(i) * period)
		d, err := do(i, due)
		done := time.Now()
		s.lateMs.addDur(done.Add(-d).Sub(due), time.Millisecond)
		s.latMs.addDur(done.Sub(due), time.Millisecond)
		s.window = append(s.window, i/rate)
		s.record(i, d, err, p, mu)
	}
	return s
}

// closedLoop sends requests back to back from base until end and
// returns the stream's record. do performs request i and returns the
// client-observed time of the request itself.
func (b *svcHTTP) closedLoop(end time.Time, do func(i int) (time.Duration, error), p *phase, mu *sync.Mutex) *stream {
	s := &stream{}
	waitUntil(b.base)
	for i := 0; ; i++ {
		start := time.Now()
		if !start.Before(end) {
			return s
		}
		d, err := do(i)
		s.latMs.addDur(d, time.Millisecond)
		s.window = append(s.window, int(start.Sub(b.base)/time.Second))
		s.record(i, d, err, p, mu)
	}
}

func (b *svcHTTP) measure() (*phase, error) {
	p := &phase{e2e: make(map[string]float64)}
	b.tr.resetService()
	before := readMem()
	nAlloc := int(b.o.seconds * allocRate)
	b.base = time.Now().Add(20 * time.Millisecond)
	end := b.base.Add(time.Duration(b.o.seconds * float64(time.Second)))
	b.recording.Store(true)

	var mu sync.Mutex // guards p between the two load goroutines
	var ingest, alloc *stream
	// Reference readings, by the 1-s window of the alloc read they
	// follow; taken by the alloc goroutine only.
	rc := refClock{k: b.echo.kernel()}
	var refWindow []int
	allocPeriod := time.Second / allocRate
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		ingest = b.closedLoop(end, func(i int) (time.Duration, error) {
			ai := b.order[i%len(b.order)]
			batch := b.fleet.Apps[ai].NextBatch(1)
			sent := time.Since(b.base)
			d, err := b.post(batch, i)
			if err == nil {
				b.due[ai] = append(b.due[ai], sent)
			}
			return d, err
		}, p, &mu)
	}()
	go func() {
		defer wg.Done()
		alloc = b.openLoop(nAlloc, allocRate, func(i int, due time.Time) (time.Duration, error) {
			app := b.fleet.Apps[b.order[(i*7919)%len(b.order)]].Name
			waitUntil(due)
			d, err := b.read(app, i)
			if i%refEvery == 0 && time.Until(due.Add(allocPeriod)) > 2*time.Millisecond {
				rc.read()
				refWindow = append(refWindow, i/allocRate)
			}
			return d, err
		}, p, &mu)
	}()
	wg.Wait()
	b.recording.Store(false)
	after := readMem()
	b.stopTicker()
	p.attempted = ingest.sent + alloc.sent
	if b.ckptErr != nil {
		p.fail("checkpoint: %v", b.ckptErr)
	}

	// The drain, as partitiond's: stop the ticker, one final unbounded
	// tick, a checkpoint. The checkpoint must restore every app's
	// allocation, and every allocation must match an in-process replay
	// of the samples the app sent.
	b.svc.Tick(0)
	checkRoundTrip(p, b.svc, b.raw, b.ckpt, 1, 1, b.tr, b.fleet)
	b.flush(p)
	var heap float64
	p.digest, heap = b.checkReplay(p)
	p.pinned = true

	lag := b.lag()
	scale := rc.scale()
	for _, ms := range ingest.latMs {
		p.units = append(p.units, ms*scale)
	}
	qi, qa, ql := tailQuantile(len(ingest.latMs)), tailQuantile(len(alloc.latMs)), tailQuantile(len(lag))
	byWindow := rc.byWindow(refWindow)
	p.e2e["heap_mb"] = heap
	p.e2e["work_per_s"] = ingest.windowed(b.o.seconds, byWindow, scale, func(lat samples, sc float64) float64 {
		return float64(len(lat)) / sc
	})
	p.e2e["latency_p50_ms"] = ingest.windowed(b.o.seconds, byWindow, scale, func(lat samples, sc float64) float64 {
		return median(lat) * sc
	})
	p.e2e["latency_tail_ms"] = ingest.windowed(b.o.seconds, byWindow, scale, func(lat samples, sc float64) float64 {
		return quantile(lat, httpTail) * sc
	})
	p.figure("ingest_per_s", p.e2e["work_per_s"], "1/s", ingest.ok)
	p.figure("ingest_p50_ms", p.e2e["latency_p50_ms"], "ms", len(ingest.latMs))
	p.figure(fmt.Sprintf("ingest_p%.0f_ms", httpTail*100), p.e2e["latency_tail_ms"], "ms", len(ingest.latMs))
	if qi != httpTail { // whole run, not windowed: shows the tick stall
		p.figure(fmt.Sprintf("ingest_p%.0f_ms", qi*100), quantile(ingest.latMs, qi)*scale, "ms", len(ingest.latMs))
	}
	p.figure("ingest_per_s_raw", float64(ingest.ok)/b.o.seconds, "1/s", ingest.ok)
	p.figure("ingest_p50_ms_raw", median(ingest.latMs), "ms", len(ingest.latMs))
	p.figure("reference_ms", rc.medianMs(), "ms", len(rc.readings))
	p.figure("alloc_p50_ms", median(alloc.latMs)*scale, "ms", len(alloc.latMs))
	p.figure(fmt.Sprintf("alloc_p%.0f_ms", qa*100), quantile(alloc.latMs, qa)*scale, "ms", len(alloc.latMs))
	p.figure("lag_p50_ms", median(lag), "ms", len(lag))
	p.figure(fmt.Sprintf("lag_p%.0f_ms", ql*100), quantile(lag, ql), "ms", len(lag))
	p.figure("decided_per_tick_s", median(b.tickRates)/scale, "1/s", len(b.tickRates))
	p.figure("tick_p50_ms", median(b.tickMs)*scale, "ms", len(b.tickMs))
	p.figure("heap_mb", heap, "MB", 0)
	late := alloc.lateMs
	p.figure("loadgen.late_ms_p50", median(late), "ms", len(late))
	p.figure("loadgen.late_ms_p99", quantile(late, 0.99), "ms", len(late))
	p.figure("loadgen.sent", float64(ingest.sent+alloc.sent), "count", 0)
	p.figure("loadgen.ok", float64(ingest.ok+alloc.ok), "count", 0)
	p.figure("loadgen.failed", float64(ingest.sent+alloc.sent-ingest.ok-alloc.ok), "count", 0)

	if b.tr != nil {
		l := newLayers()
		b.tr.serviceLayers(l)
		memLayers(l, before, after, ingest.ok)
		var transport samples
		for _, x := range []struct {
			kind string
			s    *stream
		}{{"/ingest", ingest}, {"/alloc", alloc}} {
			for i, c := range x.s.clientNs {
				if h, ok := b.tr.handlerTime(x.kind, i); ok {
					transport.addDur(time.Duration(c)-h, time.Millisecond)
				}
			}
		}
		l["http.transport_ms_p50"] = median(transport)
		l["loadgen.late_ms_p50"] = median(late)
		l["loadgen.late_ms_p99"] = quantile(late, 0.99)
		l["loadgen.sent"] = float64(ingest.sent + alloc.sent)
		l["loadgen.ok"] = float64(ingest.ok + alloc.ok)
		l["loadgen.failed"] = float64(ingest.sent + alloc.sent - ingest.ok - alloc.ok)
		p.layers = l
	}
	return p, nil
}

// windowed splits the stream into 1-s windows (a last, partial window
// is dropped unless it is the only one), applies f to each window's
// latencies and scale (from that window's reference readings, or the
// phase's scale when it has none), and returns the median across
// windows. A stall of the host, which on a shared 2-CPU machine can
// freeze the load itself for a tenth of a second, then moves only the
// window it falls in.
func (s *stream) windowed(seconds float64, refs map[int]*refClock, scale float64, f func(lat samples, scale float64) float64) float64 {
	full := int(seconds)
	if full < 1 {
		full = 1
	}
	lat := make([]samples, full)
	for k, w := range s.window {
		if w >= full {
			if seconds >= 1 {
				continue
			}
			w = 0
		}
		lat[w] = append(lat[w], s.latMs[k])
	}
	var per samples
	for w, l := range lat {
		sc := scale
		if r := refs[w]; r != nil {
			sc = r.scale()
		}
		per = append(per, f(l, sc))
	}
	return median(per)
}

// flush runs Tick(0) until no session has queued samples left, so that
// every sample sent is decided before the replay comparison. The drain
// tick above takes at most MaxSamplesPerTick samples per session; a
// host stall that delays the daemon's ticks can leave more queued.
func (b *svcHTTP) flush(p *phase) {
	for i := 0; i < 100; i++ {
		pending := false
		for _, d := range b.svc.Tick(0) {
			pending = pending || d.Samples > 0
		}
		if !pending {
			return
		}
	}
	p.fail("flush: samples still queued after 100 ticks")
}

// lag is, for every sample sent in the timed phase and published by a
// tick inside it, the time from the sample's send time to the end of
// that tick.
func (b *svcHTTP) lag() samples {
	byApp := make([][]tickEvent, len(b.due))
	for _, e := range b.events {
		byApp[e.app] = append(byApp[e.app], e)
	}
	var out samples
	for a, dues := range b.due {
		evs := byApp[a]
		j := 0
		for k, due := range dues {
			for j < len(evs) && evs[j].interval < k+1 {
				j++
			}
			if j == len(evs) {
				break
			}
			if due >= 0 {
				out.addDur(evs[j].end-due, time.Millisecond)
			}
		}
	}
	return out
}

// checkReplay replays every app's sent samples through a fresh
// in-process service (one sample per app per Tick(0)) and checks that
// the served allocation equals the replay's.
//
// It also returns the run's digest and heap_mb. The closed loop sends a
// different number of samples each run, so the served state is not the
// same from run to run; the replay's state once every app has had
// b.rounds samples is. The digest covers the replay's allocations then,
// and heap_mb is the live heap the replay service holds then, less the
// heap before it was built.
func (b *svcHTTP) checkReplay(p *phase) (string, float64) {
	fleet, err := loadgen.New(fleetConfig(b.o.size, b.o.seed, 1))
	if err != nil {
		p.fail("replay fleet: %v", err)
		return "", 0
	}
	base, heap, digest := heapMB(), 0.0, ""

	ref := service.NewSharded(service.Options{}, 1, 1)
	for round := 0; ; round++ {
		any := false
		for i, a := range fleet.Apps {
			if round < len(b.due[i]) {
				ref.Ingest(a.NextBatch(1))
				any = true
			}
		}
		if !any {
			break
		}
		ref.Tick(0)
		if round+1 == b.rounds {
			heap = heapMB() - base
			d := newDigester()
			for _, a := range fleet.Apps {
				al, _ := ref.Allocation(a.Name)
				d.add("%s %v %d", a.Name, al.Alloc, al.Interval)
			}
			digest = d.sum()
		}
	}
	if heap == 0 {
		p.fail("replay: fewer than %d samples per app, no heap reading", b.rounds)
	}
	for i, a := range fleet.Apps {
		p.attempted++
		got, ok1 := b.raw.Allocation(a.Name)
		want, ok2 := ref.Allocation(a.Name)
		if !ok1 || !ok2 || fmt.Sprint(got.Alloc) != fmt.Sprint(want.Alloc) ||
			got.Interval != want.Interval || got.Interval != len(b.due[i]) {
			p.fail("replay: %s served %v after %d samples, replay %v after %d (sent %d)",
				a.Name, got.Alloc, got.Interval, want.Alloc, want.Interval, len(b.due[i]))
		}
	}
	return digest, heap
}
