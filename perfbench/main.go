// Command perfbench is the repository benchmark. It drives the two
// pipelines of the repo through their internal packages' public
// functions and prints one JSON result line:
//
//	sim-paper   experiment → sim → cache/umon/trace → core controller
//	svc-decide  loadgen fleet → service.Sharded ingest + tick (no wire)
//	svc-http    loadgen fleet → HTTP → envelope → admission → tick →
//	            engine → /alloc → checkpoint, over loopback
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload sim-paper --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with no instrumentation.
// --trace 1 runs the same workload three times with the same seed and
// size, each for half of --seconds: untraced, traced, untraced again.
// It prints the per-layer metrics of the traced phase and the tracing
// overhead, with the difference between the two untraced phases as its
// resolution. Every end-to-end timing is scaled to a reference
// speed by a kernel timed inside the same run (refclock.go). See
// README.md for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// options is one invocation's workload parameters.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	size     string // "full" or "tiny"
	workdir  string
	// passes fixes sim-paper's pass count; 0 fits it to seconds. The
	// traced run's later phases repeat the first phase's count.
	passes int
	out    io.Writer // human-readable report lines
}

// bench is one workload instance. setup does the one-time work that
// setup_s times; measure runs the timed phase; close releases
// everything setup started and waits for it.
type bench interface {
	setup() error
	measure() (*phase, error)
	close()
}

// newBench builds a workload instance. tr is nil for the untraced run.
func newBench(o options, tr *tracer) (bench, error) {
	switch o.workload {
	case "sim-paper":
		return newSimPaper(o, tr)
	case "svc-decide":
		return newSvcDecide(o, tr)
	case "svc-http":
		return newSvcHTTP(o, tr)
	}
	return nil, fmt.Errorf("unknown workload %q (have sim-paper, svc-decide, svc-http)", o.workload)
}

// phase is what one timed phase measured.
type phase struct {
	// e2e holds the workload's values for the end-to-end metrics.
	e2e map[string]float64
	// named are the workload's own named end-to-end figures (sim_mips,
	// tick_p50_ms, ...) with their units and sample counts, printed in
	// the report.
	named []namedFigure
	// layers holds the per-layer metrics (traced run only).
	layers map[string]float64
	// digest identifies the outputs; the traced run must reproduce the
	// untraced run's digest exactly. pinned means golden.json holds the
	// digest every run must reproduce.
	digest string
	pinned bool

	// units are the scaled times of the phase's units of work in run
	// order (sim cells, svc-decide steps, svc-http ingest requests).
	// The same seed gives the same units in the same order, so the
	// traced and untraced phases pair up unit by unit.
	units []float64
	// passes is how many sim-paper passes ran.
	passes int

	attempted, failed int
	problems          []string
}

type namedFigure struct {
	name  string
	value float64
	unit  string
	n     int // sample count (0 for a figure that is not a sample statistic)
}

func (p *phase) fail(format string, args ...interface{}) {
	p.failed++
	if len(p.problems) < 20 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

func (p *phase) figure(name string, value float64, unit string, n int) {
	p.named = append(p.named, namedFigure{name, value, unit, n})
}

func (p *phase) figureValue(name string) (float64, bool) {
	for _, f := range p.named {
		if f.name == name {
			return f.value, true
		}
	}
	return 0, false
}

// End-to-end metrics, the same set on every workload (BENCHMARK.json).
var e2eUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"work_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traced int
	var setupOnly bool
	fs.StringVar(&o.workload, "workload", "", "sim-paper | svc-decide | svc-http")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase")
	fs.IntVar(&traced, "trace", 0, "1 = also run traced and print per-layer metrics")
	fs.StringVar(&o.size, "size", "full", "full | tiny (tiny is for the package tests)")
	fs.StringVar(&o.workdir, "workdir", ".bench_build/work", "scratch directory for checkpoints")
	fs.BoolVar(&setupOnly, "setup-only", false, "time one cold set-up and print it (used to sample setup_s)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.size != "full" && o.size != "tiny" {
		fmt.Fprintf(stderr, "perfbench: unknown size %q\n", o.size)
		return 2
	}
	if traced != 0 && traced != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	o.out = stdout
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if setupOnly {
		o.out = io.Discard
		raw, scaled, err := timeSetup(o)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "setup_s %.9f %.9f\n", scaled, raw.Seconds())
		return 0
	}
	res, err := execute(o, traced == 1, args)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// timeSetup builds one workload instance, times its set-up, and tears
// it down again.
func timeSetup(o options) (time.Duration, float64, error) {
	b, err := newBench(o, nil)
	if err != nil {
		return 0, 0, err
	}
	defer b.close()
	return timedSetup(b)
}

// timedSetup runs b's set-up between reference readings and returns
// its raw time and its time in seconds scaled to reference speed by the
// median of the readings on both sides.
func timedSetup(b bench) (time.Duration, float64, error) {
	const readings = 3 // on each side
	rc := refClock{k: cpuKernel}
	runtime.GC()
	for i := 0; i < readings; i++ {
		rc.readCold()
	}
	t0 := time.Now()
	err := b.setup()
	raw := time.Since(t0)
	for i := 0; i < readings; i++ {
		rc.readCold()
	}
	return raw, raw.Seconds() * rc.scale(), err
}

// Extra cold set-ups (fresh processes, so the process-wide tables are
// cold too) sample setup_s beside the run's own: at least
// minSetupChildren, then more until setupBudget has passed, up to
// maxSetupChildren. Thirty cold set-ups of sim-paper in a row took
// 29–42 ms, so its median needs the many samples its short set-up
// allows; the service set-ups (~0.25 s) stop at about the minimum.
const (
	minSetupChildren = 6
	maxSetupChildren = 30
	setupBudget      = 2 * time.Second
)

// execute runs the untraced phase and, when traced, the traced phase
// and a second untraced phase, then checks the outputs and assembles
// the result line.
func execute(o options, traced bool, args []string) (*result, error) {
	if traced {
		o.seconds /= 2
	}
	var setups, rawSetups []float64
	if !traced {
		start := time.Now()
		for i := 0; i < maxSetupChildren && (i < minSetupChildren || time.Since(start) < setupBudget); i++ {
			s, raw, err := childSetup(args)
			if err != nil {
				return nil, err
			}
			setups, rawSetups = append(setups, s), append(rawSetups, raw)
		}
	}

	plain, raw, setup, err := runPhase(o, nil)
	if err != nil {
		return nil, err
	}
	setups, rawSetups = append(setups, setup), append(rawSetups, raw.Seconds())
	var tracedPhase, again *phase
	if traced {
		o.passes = plain.passes
		if tracedPhase, _, _, err = runPhase(o, newTracer()); err != nil {
			return nil, err
		}
		if again, _, _, err = runPhase(o, nil); err != nil {
			return nil, err
		}
	}

	g := goldenDigest(o)
	res := &result{Correct: true, Attempted: plain.attempted, Failed: plain.failed,
		Metrics: make(map[string]metric)}
	check := func(ok bool, format string, args ...interface{}) {
		if !ok {
			res.Correct = false
			fmt.Fprintf(o.out, "MISMATCH: "+format+"\n", args...)
		}
	}
	fmt.Fprintf(o.out, "workload %s seed %d size %s variant %d seconds %g\n",
		o.workload, o.seed, o.size, variant(o.seed), o.seconds)
	for _, p := range plain.problems {
		fmt.Fprintln(o.out, "failure:", p)
	}
	if plain.pinned {
		fmt.Fprintf(o.out, "digest %s = %s (golden %s)\n", goldenKey(o), plain.digest, g)
		check(g != "", "no golden digest for %s", goldenKey(o))
		check(plain.digest == g, "digest %s, golden %s", plain.digest, g)
	} else {
		fmt.Fprintf(o.out, "digest %s = %s\n", goldenKey(o), plain.digest)
	}
	check(plain.failed == 0, "%d of %d operations failed", plain.failed, plain.attempted)
	if traced {
		for _, ph := range []struct {
			name string
			p    *phase
		}{{"traced", tracedPhase}, {"second untraced", again}} {
			res.Attempted += ph.p.attempted
			res.Failed += ph.p.failed
			for _, pr := range ph.p.problems {
				fmt.Fprintf(o.out, "failure (%s): %s\n", ph.name, pr)
			}
			check(ph.p.digest == plain.digest, "%s digest %s != untraced %s", ph.name, ph.p.digest, plain.digest)
			check(ph.p.failed == 0, "%s phase: %d of %d operations failed", ph.name, ph.p.failed, ph.p.attempted)
		}
	}

	plain.e2e["setup_s"] = median(setups)
	fmt.Fprintf(o.out, "%-22s %14.6g %-6s n=%d\n", "setup_s", plain.e2e["setup_s"], "s", len(setups))
	fmt.Fprintf(o.out, "%-22s %14.6g %-6s n=%d\n", "setup_s_raw", median(rawSetups), "s", len(rawSetups))
	printNamed(o.out, plain.named)
	if !traced {
		for _, m := range e2eUnits {
			v, ok := plain.e2e[m.name]
			check(ok && v > 0 && !math.IsInf(v, 0), "end-to-end metric %s missing or not positive (%v)", m.name, v)
			res.Metrics[m.name] = metric{finite(v), m.unit}
		}
		return res, nil
	}

	layers := tracedPhase.layers
	// The traced run's heap holds the tracer's own samples, so the
	// per-session heap comes from the untraced run.
	if v, ok := plain.figureValue("heap_bytes_per_session"); ok {
		layers["service.heap_bytes_per_session"] = v
	}
	overhead, resolution, n := pairedOverhead(plain.units, tracedPhase.units, again.units)
	layers["tracing.overhead_pct"] = overhead
	layers["tracing.resolution_pct"] = resolution
	verdict := "resolved"
	if math.Abs(overhead) <= resolution {
		verdict = "unresolved: the untraced phases differ by as much"
	}
	fmt.Fprintf(o.out, "tracing overhead %.2f%% over %d paired units; untraced phases differ by %.2f%% (%s)\n",
		overhead, n, resolution, verdict)
	fmt.Fprintln(o.out, "traced run:")
	printNamed(o.out, tracedPhase.named)
	for _, m := range layerUnits {
		v, ok := layers[m.name]
		check(ok && !math.IsNaN(v) && !math.IsInf(v, 0), "per-layer metric %s missing or not finite (%v)", m.name, v)
		res.Metrics[m.name] = metric{finite(v), m.unit}
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(o.out, "  %-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	return res, nil
}

// runPhase builds one workload instance, sets it up (timed), measures
// it and tears it down. It returns the raw and the scaled set-up time.
func runPhase(o options, tr *tracer) (*phase, time.Duration, float64, error) {
	b, err := newBench(o, tr)
	if err != nil {
		return nil, 0, 0, err
	}
	defer b.close()
	raw, scaled, err := timedSetup(b)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("%s set-up: %w", o.workload, err)
	}
	runtime.GC()
	p, err := b.measure()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("%s: %w", o.workload, err)
	}
	return p, raw, scaled, nil
}

// childSetup re-executes this binary with --setup-only and returns the
// scaled and raw cold set-up times it reports. The child is waited for.
func childSetup(args []string) (float64, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, 0, err
	}
	cmd := exec.Command(exe, append(append([]string(nil), args...), "--setup-only")...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, 0, fmt.Errorf("set-up child: %w", err)
	}
	f := strings.Fields(string(out))
	if len(f) != 3 || f[0] != "setup_s" {
		return 0, 0, fmt.Errorf("set-up child printed %q", out)
	}
	scaled, err1 := strconv.ParseFloat(f[1], 64)
	raw, err2 := strconv.ParseFloat(f[2], 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("set-up child printed %q", out)
	}
	return scaled, raw, nil
}

// pairedOverhead pairs the traced phase's units with the same units of
// the two untraced phases around it. It returns the median ratio of
// traced to mean untraced time as a percentage over 1, the median ratio
// of the second untraced phase to the first as a percentage off 1 (the
// same comparison with no tracing in it, so the noise floor), and the
// number of units paired.
func pairedOverhead(before, traced, after []float64) (pct, resolution float64, n int) {
	n = len(before)
	for _, u := range [][]float64{traced, after} {
		if len(u) < n {
			n = len(u)
		}
	}
	var ratios, drift samples
	for k := 0; k < n; k++ {
		if before[k] > 0 && after[k] > 0 {
			ratios = append(ratios, traced[k]/((before[k]+after[k])/2))
			drift = append(drift, after[k]/before[k])
		}
	}
	if len(ratios) == 0 {
		return 0, 0, 0
	}
	return 100 * (median(ratios) - 1), 100 * math.Abs(median(drift)-1), len(ratios)
}
func printNamed(w io.Writer, figs []namedFigure) {
	for _, f := range figs {
		if f.n > 0 {
			fmt.Fprintf(w, "%-22s %14.6g %-6s n=%d\n", f.name, f.value, f.unit, f.n)
		} else {
			fmt.Fprintf(w, "%-22s %14.6g %s\n", f.name, f.value, f.unit)
		}
	}
}

// finite maps NaN and infinities, which JSON cannot carry, to 0; the
// caller has already failed the run for them.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// heapMB is the live heap after full collections, in MB. The second
// collection frees what sync.Pool victim caches kept alive through the
// first.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
