package main

import (
	"io"
	"net"
	"syscall"
	"time"
	"unsafe"
)

// The host these figures are taken on is shared: other tenants' load
// slows the benchmark by up to 1.4x for minutes at a time, and a run
// cannot be kept inside one such stretch. Every end-to-end timing is
// therefore scaled to a reference speed by a fixed kernel timed inside
// the same run, between pieces of work:
//
//	scaled = raw × nominal / reference reading
//
// A stretch that slows both the work and the kernel leaves the scaled
// figure where it was; a change to the program moves the work and not
// the kernel, which is benchmark code no program change touches.
//
// There are three kernels, each the one that tracked its workloads' own
// slow-downs most closely of those tried beside them (an integer-hash
// loop, random access over 1 MB and over 16 or 32 MB, a small
// set-associative cache simulation, mixes of these, and echo round
// trips over a Unix socket pair and over loopback TCP):
//
//   - cpuKernel, an integer-hash loop followed by random
//     read-modify-writes over a 1 MB buffer, for svc-decide and for
//     every set-up. The host has slow stretches of two kinds, one that
//     slows memory access far more than arithmetic and one that slows
//     arithmetic with memory access merely noisy; neither half alone
//     followed both, and the sum is the compromise. The buffer lives
//     outside the Go heap, so it moves neither heap_mb nor the
//     collector's pacing.
//   - simKernel, the same integer-hash loop followed by a small
//     two-level set-associative cache simulation, for sim-paper. The
//     simulator is branchy tag scans over a few hundred KB, and the
//     host's slow stretches slowed it about 1.4 times as much as they
//     slowed cpuKernel; the cache simulation, with the hash loop for
//     the arithmetic kind of stretch, followed it closely.
//   - echo, round trips of a 64-byte message over a loopback TCP
//     connection to an echo goroutine, for svc-http, whose requests
//     spend most of their time in the host's network stack and
//     scheduler.

// kernel is a reference kernel: run times one execution, nominal is
// what a reading is scaled to (about what the kernel takes on a 2-CPU
// linux/amd64 Xeon VM when other tenants are quiet, so scaled figures
// read close to raw ones there).
type kernel struct {
	run     func() time.Duration
	nominal time.Duration
}

const (
	aluRounds   = 200_000
	memWords    = 1 << 18 // 1 MB of uint32
	memAccesses = 100_000
)

var cpuKernel = kernel{runCPU, 1500 * time.Microsecond}

var (
	memBuf   = mapWords(memWords)
	evictBuf = mapWords(8 * memWords)
)

// mapWords returns n words mapped outside the Go heap, every page
// already faulted in so that no reading pays for it.
func mapWords(n int) []uint32 {
	b, err := syscall.Mmap(-1, 0, n*4, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	var buf []uint32
	if err != nil {
		buf = make([]uint32, n) // no anonymous mappings: fall back to the heap
	} else {
		buf = unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
	}
	for i := range buf {
		buf[i] = uint32(i)
	}
	return buf
}

// readCold takes one cpuKernel reading from the cache state the
// workloads leave it in: an 8 MB write sweep first pushes the kernel's
// buffer out of the core's caches, as a piece of work between two
// readings does. Set-up, which has no work between its readings, uses
// it.
func (r *refClock) readCold() {
	for i := range evictBuf {
		evictBuf[i]++
	}
	r.read()
}

// cpuSink keeps the kernels' results live.
var cpuSink uint64

// hashRounds runs the integer-hash loop both CPU kernels start with.
func hashRounds(x uint64) uint64 {
	for i := 0; i < aluRounds; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		x *= 0x9E3779B97F4A7C15
	}
	return x
}

func runCPU() time.Duration {
	t0 := time.Now()
	x := hashRounds(88172645463325252)
	var acc uint32
	for i := 0; i < memAccesses; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (memWords - 1)
		acc += memBuf[j]
		memBuf[j] = acc
	}
	cpuSink += x + uint64(acc)
	return time.Since(t0)
}

var simKernel = kernel{runSim, 2500 * time.Microsecond}

// The cache simulation of simKernel: four threads' private L1s
// (l1Sets × l1Ways) over a shared L2 (l2Sets × l2Ways, 256 KB of 64-byte
// lines), LRU by last-use stamps, tags found by a linear scan. Its
// state lives in package arrays, outside the Go heap, and persists
// between readings, so after the first reading every reading replays
// the same accesses against the same state.
const (
	simAccesses  = 6_000
	l1Sets       = 16
	l1Ways       = 4
	l2Sets       = 64
	l2Ways       = 64
	simRankBits  = 16
	simLineRanks = 1 << 15
)

var (
	l2Tags, l2Used [l2Sets * l2Ways]uint64
	l1Tags, l1Used [4][l1Sets * l1Ways]uint64
	simClock       uint64
	// simRank maps a 16-bit uniform draw to a line rank, skewed towards
	// low ranks (rank = N·u³) so that some lines hit and most miss.
	simRank [1 << simRankBits]uint32
)

func init() {
	for i := range simRank {
		u := float64(i) / float64(len(simRank))
		simRank[i] = uint32(simLineRanks * u * u * u)
	}
}

// lookup finds tag in ways [base, base+n) of one level, refreshing its
// stamp; on a miss it replaces the least recently used way.
func lookup(tags, used []uint64, base, n int, tag uint64) bool {
	simClock++
	for i := base; i < base+n; i++ {
		if tags[i] == tag {
			used[i] = simClock
			return true
		}
	}
	victim := base
	for i := base + 1; i < base+n; i++ {
		if used[i] < used[victim] {
			victim = i
		}
	}
	tags[victim], used[victim] = tag, simClock
	return false
}

func runSim() time.Duration {
	t0 := time.Now()
	x := hashRounds(88172645463325252)
	hits := 0
	for i := 0; i < simAccesses; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		th := int(x>>60) & 3
		line := uint64(simRank[x&(1<<simRankBits-1)]) + uint64(th)<<20
		if lookup(l1Tags[th][:], l1Used[th][:], int(line%l1Sets)*l1Ways, l1Ways, line) ||
			lookup(l2Tags[:], l2Used[:], int(line%l2Sets)*l2Ways, l2Ways, line) {
			hits++
		}
	}
	cpuSink += x + uint64(hits)
	return time.Since(t0)
}

// echoTrips is how many round trips one echo reading times.
const echoTrips = 10

// echo is a loopback TCP echo: a listener, its one server-side
// connection served by an echo goroutine, and the client side.
type echo struct {
	ln     net.Listener
	client net.Conn
	done   chan struct{}
	buf    []byte
}

func startEcho() (*echo, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &echo{ln: ln, done: make(chan struct{}), buf: make([]byte, 64)}
	go func() {
		defer close(e.done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(c, c) // until the client closes
	}()
	if e.client, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		ln.Close()
		<-e.done
		return nil, err
	}
	return e, nil
}

func (e *echo) kernel() kernel {
	return kernel{e.roundTrips, 180 * time.Microsecond}
}

func (e *echo) roundTrips() time.Duration {
	t0 := time.Now()
	for i := 0; i < echoTrips; i++ {
		if _, err := e.client.Write(e.buf); err != nil {
			return 0
		}
		if _, err := io.ReadFull(e.client, e.buf); err != nil {
			return 0
		}
	}
	return time.Since(t0)
}

// close shuts the echo down and waits for its goroutine.
func (e *echo) close() {
	e.client.Close()
	e.ln.Close()
	<-e.done
}

// refClock is one phase's reference readings of one kernel, in run
// order.
type refClock struct {
	k        kernel
	readings []time.Duration
}

// read takes one reading.
func (r *refClock) read() {
	r.readings = append(r.readings, r.k.run())
}

// scale is the factor for the phase as a whole: nominal over the median
// reading.
func (r *refClock) scale() float64 {
	ms := make(samples, len(r.readings))
	for i, d := range r.readings {
		ms[i] = float64(d)
	}
	return float64(r.k.nominal) / median(ms)
}

// byWindow splits the readings by the window each was taken in
// (windows[k] for reading k).
func (r *refClock) byWindow(windows []int) map[int]*refClock {
	out := make(map[int]*refClock)
	for k, w := range windows {
		if out[w] == nil {
			out[w] = &refClock{k: r.k}
		}
		out[w].readings = append(out[w].readings, r.readings[k])
	}
	return out
}

// medianMs is the median reading in ms, for the report.
func (r *refClock) medianMs() float64 {
	return float64(r.k.nominal) / r.scale() / float64(time.Millisecond)
}
