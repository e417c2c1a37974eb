package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// variants is how many input variants each workload has. The seed
// picks one (seed mod variants) and also orders the work; golden.json
// pins the output digest of every variant at both sizes.
const variants = 4

func variant(seed uint64) int { return int(seed % variants) }

//go:embed golden.json
var goldenJSON []byte

func goldenKey(o options) string {
	return fmt.Sprintf("%s/%s/%d", o.workload, o.size, variant(o.seed))
}

// goldenDigest returns the committed digest for o's workload, size and
// variant ("" when none is committed).
func goldenDigest(o options) string {
	var g map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic("perfbench: golden.json: " + err.Error())
	}
	return g[goldenKey(o)]
}

// digester hashes output records into a hex digest.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{sha256.New()} }

func (d *digester) add(format string, args ...interface{}) {
	fmt.Fprintf(d.h, format, args...)
	d.h.Write([]byte{'\n'})
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:16]) }

// samples is a set of timings.
type samples []float64

func (s *samples) addDur(d time.Duration, unit time.Duration) {
	*s = append(*s, float64(d)/float64(unit))
}

func sorted(xs []float64) []float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return c
}

// quantile is the nearest-rank q-quantile (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := sorted(xs)
	i := int(q*float64(len(c))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(c) {
		i = len(c) - 1
	}
	return c[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the highest of p99, p90 that leaves at least ten
// samples beyond it, with the quantile it chose (0 when even p90 has
// too few samples).
func tailQuantile(n int) float64 {
	for _, pct := range []int{99, 90} {
		if n*(100-pct) >= 10*100 {
			return float64(pct) / 100
		}
	}
	return 0
}

// checkpointPath is this process's checkpoint file in the work
// directory (set-up children run beside the parent, so the pid keeps
// their files apart).
func checkpointPath(o options) string {
	return filepath.Join(o.workdir, fmt.Sprintf("%s-%d.ickp", o.workload, os.Getpid()))
}

// checkpointFiles lists a checkpoint's files: the file itself and, for
// a sharded service, its generation-stamped shard files.
func checkpointFiles(path string) []string {
	files, _ := filepath.Glob(path + "*") // the pattern is well-formed
	return files
}

func checkpointBytes(path string) int64 {
	var n int64
	for _, f := range checkpointFiles(path) {
		if fi, err := os.Stat(f); err == nil {
			n += fi.Size()
		}
	}
	return n
}

func removeCheckpoint(path string) {
	for _, f := range checkpointFiles(path) {
		os.Remove(f)
	}
}
