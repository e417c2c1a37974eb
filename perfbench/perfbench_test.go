package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when
// execute re-runs it with --setup-only to sample setup_s.
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "--setup-only" {
			os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
		}
	}
	os.Exit(m.Run())
}

var workloads = []string{"sim-paper", "svc-decide", "svc-http"}

// namedFigures are the workload figures each report must print with a
// sample count.
var namedFigures = map[string][]string{
	"sim-paper":  {"interval_p50_ms"},
	"svc-decide": {"samples_per_s", "tick_p50_ms"},
	"svc-http":   {"ingest_p50_ms", "alloc_p50_ms", "lag_p50_ms", "loadgen.late_ms_p50"},
}

func runTiny(t *testing.T, workload string, traced bool) (*result, string, int) {
	t.Helper()
	tr := "0"
	if traced {
		tr = "1"
	}
	var out, errb bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "6", "--seconds", "1", "--size", "tiny",
		"--trace", tr, "--workdir", t.TempDir()}, &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", workload, err, out.String(), errb.String())
	}
	return &res, out.String(), code
}

func TestTinyRunPrintsEveryEndToEndMetric(t *testing.T) {
	for _, w := range workloads {
		res, report, code := runTiny(t, w, false)
		if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("%s: exit %d, result %+v\n%s", w, code, res, report)
		}
		if len(res.Metrics) != len(e2eUnits) {
			t.Errorf("%s: %d metrics, want %d", w, len(res.Metrics), len(e2eUnits))
		}
		for _, m := range e2eUnits {
			got, ok := res.Metrics[m.name]
			if !ok || got.Unit != m.unit || got.Value <= 0 {
				t.Errorf("%s: metric %s = %+v, want a positive value in %s", w, m.name, got, m.unit)
			}
		}
		for _, name := range namedFigures[w] {
			if !strings.Contains(report, name) || !strings.Contains(report, "n=") {
				t.Errorf("%s: report lacks %s with a sample count:\n%s", w, name, report)
			}
		}
		if !strings.Contains(report, "digest ") {
			t.Errorf("%s: report lacks the digest line:\n%s", w, report)
		}
	}
}

func TestTracedRunPrintsEveryLayerMetric(t *testing.T) {
	for _, w := range workloads {
		res, report, code := runTiny(t, w, true)
		if code != 0 || !res.Correct {
			t.Fatalf("%s: exit %d, correct %v\n%s", w, code, res.Correct, report)
		}
		if len(res.Metrics) != len(layerUnits) {
			t.Errorf("%s: %d metrics, want %d", w, len(res.Metrics), len(layerUnits))
		}
		for _, m := range layerUnits {
			if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
				t.Errorf("%s: metric %s = %+v, want unit %s", w, m.name, got, m.unit)
			}
		}
	}
}

// TestTracingLeavesDigestsUnchanged runs each workload with and without
// the tracing wrappers and compares the output digests directly.
func TestTracingLeavesDigestsUnchanged(t *testing.T) {
	for _, w := range workloads {
		o := options{workload: w, seed: 3, seconds: 0.5, size: "tiny", workdir: t.TempDir(), out: &bytes.Buffer{}}
		plain, _, _, err := runPhase(o, nil)
		if err != nil {
			t.Fatal(err)
		}
		traced, _, _, err := runPhase(o, newTracer())
		if err != nil {
			t.Fatal(err)
		}
		if plain.digest == "" || traced.digest != plain.digest {
			t.Errorf("%s: traced digest %q, untraced %q", w, traced.digest, plain.digest)
		}
		if plain.pinned && plain.digest != goldenDigest(o) {
			t.Errorf("%s: digest %s, golden %s", w, plain.digest, goldenDigest(o))
		}
	}
}

// TestDigestMismatchFailsTheRun swaps in a wrong golden digest and
// checks the run reports incorrect and exits non-zero.
func TestDigestMismatchFailsTheRun(t *testing.T) {
	saved := goldenJSON
	defer func() { goldenJSON = saved }()
	o := options{workload: "svc-decide", seed: 6, size: "tiny"}
	goldenJSON = []byte(`{"` + goldenKey(o) + `": "00000000000000000000000000000000"}`)
	res, report, code := runTiny(t, "svc-decide", false)
	if code == 0 || res.Correct || !strings.Contains(report, "MISMATCH") {
		t.Fatalf("exit %d, correct %v with a wrong golden digest\n%s", code, res.Correct, report)
	}
}

func TestQuantiles(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if got := median(xs); got != 50 {
		t.Errorf("median = %v, want 50", got)
	}
	if got := quantile(xs, 0.9); got != 90 {
		t.Errorf("p90 = %v, want 90", got)
	}
	for n, want := range map[int]float64{99: 0, 100: 0.9, 999: 0.9, 1000: 0.99} {
		if got := tailQuantile(n); got != want {
			t.Errorf("tailQuantile(%d) = %v, want %v", n, got, want)
		}
	}
}
