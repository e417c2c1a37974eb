// Package spline implements the curve-fitting primitives used by the
// model-based partitioning scheme (Sec. VI-B of the paper). The paper
// fits each thread's CPI-vs-ways data points with "a simple cubic spline
// interpolation" and notes that the choice of fitting algorithm is
// independent of the scheme; this package therefore provides three
// interchangeable interpolants behind one interface:
//
//   - Natural cubic spline (the paper's default)
//   - PCHIP (Fritsch–Carlson monotone cubic) — avoids the overshoot a
//     natural spline can exhibit with sparse, noisy CPI samples
//   - Piecewise linear — the trivially robust fallback
//
// All interpolants clamp extrapolation to the boundary values: CPI
// predictions outside the observed way range are held at the nearest
// observed point, which keeps the partitioning iteration from chasing
// fictitious improvements beyond its data.
package spline

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Interpolator predicts y for any x, fitted from sample points.
type Interpolator interface {
	// Eval returns the interpolated value at x. Outside the fitted
	// x-range, Eval returns the boundary value (clamped extrapolation).
	Eval(x float64) float64
	// Knots returns the fitted x coordinates in ascending order.
	Knots() []float64
}

// Kind selects an interpolation algorithm.
type Kind int

const (
	// NaturalCubic is the classic natural cubic spline (second
	// derivative zero at both ends). The paper's default.
	NaturalCubic Kind = iota
	// PCHIP is the Fritsch–Carlson monotone piecewise-cubic Hermite
	// interpolant; it never overshoots the data.
	PCHIP
	// Linear is piecewise-linear interpolation.
	Linear
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case NaturalCubic:
		return "natural-cubic"
	case PCHIP:
		return "pchip"
	case Linear:
		return "linear"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

var errTooFew = errors.New("spline: need at least one data point")

// Fit builds an interpolator of the given kind over the points
// (xs[i], ys[i]). The slices must have equal nonzero length and every
// coordinate must be finite: a single NaN or Inf would contaminate the
// whole tridiagonal solve and make Eval return NaN everywhere, so such
// inputs are rejected up front. Duplicate x values are collapsed by
// averaging their y values; points need not be pre-sorted. With a
// single distinct point the result is a constant function; with two,
// all kinds degenerate to linear interpolation.
//
// Input already in strictly increasing x order (what a CPI model
// holds) skips the sort and duplicate collapse. The result does not
// alias xs or ys, and the fit retains only its knots and slopes: the
// solve's working arrays live on the stack for small inputs.
func Fit(kind Kind, xs, ys []float64) (Interpolator, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("spline: mismatched lengths %d vs %d", len(xs), len(ys))
	}
	if len(xs) == 0 {
		return nil, errTooFew
	}
	sorted := true
	for i := range xs {
		if math.IsNaN(xs[i]) || math.IsInf(xs[i], 0) {
			return nil, fmt.Errorf("spline: non-finite x at index %d: %v", i, xs[i])
		}
		if math.IsNaN(ys[i]) || math.IsInf(ys[i], 0) {
			return nil, fmt.Errorf("spline: non-finite y at index %d: %v", i, ys[i])
		}
		if i > 0 && !(xs[i-1] < xs[i]) {
			sorted = false
		}
	}
	var x, y, m []float64
	if sorted {
		n := len(xs)
		if n == 1 {
			return constant(plusZero(ys[0])), nil
		}
		// One allocation for everything the fit keeps: x, y and, for
		// the cubic kinds, the slopes.
		size := 3 * n
		if n == 2 || kind == Linear {
			size = 2 * n
		}
		buf := make([]float64, size)
		x, y, m = buf[:n:n], buf[n:2*n:2*n], buf[2*n:]
		copy(x, xs)
		for i, v := range ys {
			y[i] = plusZero(v)
		}
	} else {
		x, y = dedupSorted(xs, ys)
	}
	switch {
	case len(x) == 1:
		return constant(y[0]), nil
	case len(x) == 2 || kind == Linear:
		return &linear{x: x, y: y}, nil
	case kind == NaturalCubic || kind == PCHIP:
		if m == nil { // the general path has no slope buffer yet
			m = make([]float64, len(x))
		}
		if kind == NaturalCubic {
			fitNatural(x, y, m)
		} else {
			fitPCHIP(x, y, m)
		}
		return &cubic{x: x, y: y, m: m}, nil
	default:
		return nil, fmt.Errorf("spline: unknown kind %v", kind)
	}
}

// plusZero returns v with a negative zero turned positive: the value
// dedupSorted's averaging (0 + v, divided by one) yields for a lone
// point, so the sorted fast path produces the same floats.
func plusZero(v float64) float64 {
	if v == 0 {
		return 0
	}
	return v
}

// dedupSorted sorts the points by x and averages y across duplicate xs.
func dedupSorted(xs, ys []float64) ([]float64, []float64) {
	type pt struct{ x, y float64 }
	pts := make([]pt, len(xs))
	for i := range xs {
		pts[i] = pt{xs[i], ys[i]}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].x < pts[j].x })
	outX := make([]float64, 0, len(pts))
	outY := make([]float64, 0, len(pts))
	for i := 0; i < len(pts); {
		j := i
		var sum float64
		for j < len(pts) && pts[j].x == pts[i].x {
			sum += pts[j].y
			j++
		}
		outX = append(outX, pts[i].x)
		outY = append(outY, sum/float64(j-i))
		i = j
	}
	return outX, outY
}

// stackKnots is the knot count up to which a fit's working arrays fit
// in a fixed stack buffer; larger inputs fall back to the heap.
const stackKnots = 32

// constant is an Interpolator returning a fixed value everywhere.
type constant float64

func (c constant) Eval(float64) float64 { return float64(c) }
func (c constant) Knots() []float64     { return nil }

// linear is a piecewise-linear interpolant over sorted distinct knots.
type linear struct{ x, y []float64 }

func (l *linear) Knots() []float64 { return l.x }

func (l *linear) Eval(x float64) float64 {
	n := len(l.x)
	if x <= l.x[0] {
		return l.y[0]
	}
	if x >= l.x[n-1] {
		return l.y[n-1]
	}
	i := sort.SearchFloat64s(l.x, x)
	if l.x[i] == x {
		return l.y[i]
	}
	// x lies in (l.x[i-1], l.x[i]).
	t := (x - l.x[i-1]) / (l.x[i] - l.x[i-1])
	return l.y[i-1] + t*(l.y[i]-l.y[i-1])
}

// cubic is a piecewise-cubic Hermite interpolant: on segment i the
// curve is defined by endpoint values y[i], y[i+1] and endpoint slopes
// m[i], m[i+1]. Both the natural spline and PCHIP reduce to this form.
type cubic struct {
	x, y, m []float64
}

func (c *cubic) Knots() []float64 { return c.x }

func (c *cubic) Eval(x float64) float64 {
	n := len(c.x)
	if x <= c.x[0] {
		return c.y[0]
	}
	if x >= c.x[n-1] {
		return c.y[n-1]
	}
	i := sort.SearchFloat64s(c.x, x)
	if c.x[i] == x {
		return c.y[i]
	}
	i-- // segment index
	h := c.x[i+1] - c.x[i]
	t := (x - c.x[i]) / h
	t2 := t * t
	t3 := t2 * t
	h00 := 2*t3 - 3*t2 + 1
	h10 := t3 - 2*t2 + t
	h01 := -2*t3 + 3*t2
	h11 := t3 - t2
	return h00*c.y[i] + h10*h*c.m[i] + h01*c.y[i+1] + h11*h*c.m[i+1]
}

// fitNatural computes natural-cubic-spline endpoint slopes into
// slopes by solving the standard tridiagonal system for the second
// derivatives and converting to Hermite form.
func fitNatural(x, y, slopes []float64) {
	n := len(x)
	// Working arrays: h (n-1), sigma (n) and, for the interior solve,
	// a, b, cc, d (n-2 each). None of them outlives the call.
	var stack [6 * stackKnots]float64
	work := stack[:]
	if need := 6 * n; need > len(work) {
		work = make([]float64, need)
	}
	h := work[: n-1 : n-1]
	work = work[n-1:]
	for i := range h {
		h[i] = x[i+1] - x[i]
	}
	// Solve for second derivatives sigma via the Thomas algorithm.
	// Natural boundary: sigma[0] = sigma[n-1] = 0.
	sigma := work[:n:n]
	work = work[n:]
	if n > 2 {
		// Subdiagonal a, diagonal b, superdiagonal c, rhs d for the
		// interior unknowns sigma[1..n-2].
		m := n - 2
		a, b, cc, d := work[:m:m], work[m:2*m:2*m], work[2*m:3*m:3*m], work[3*m:4*m:4*m]
		for i := 0; i < m; i++ {
			a[i] = h[i]
			b[i] = 2 * (h[i] + h[i+1])
			cc[i] = h[i+1]
			d[i] = 6 * ((y[i+2]-y[i+1])/h[i+1] - (y[i+1]-y[i])/h[i])
		}
		// Forward elimination.
		for i := 1; i < m; i++ {
			w := a[i] / b[i-1]
			b[i] -= w * cc[i-1]
			d[i] -= w * d[i-1]
		}
		// Back substitution.
		sigma[m] = d[m-1] / b[m-1]
		for i := m - 2; i >= 0; i-- {
			sigma[i+1] = (d[i] - cc[i]*sigma[i+2]) / b[i]
		}
	}
	// Convert to endpoint slopes: m[i] = dy/dx at knot i.
	for i := 0; i < n-1; i++ {
		slopes[i] = (y[i+1]-y[i])/h[i] - h[i]/6*(2*sigma[i]+sigma[i+1])
	}
	last := n - 2
	slopes[n-1] = (y[n-1]-y[last])/h[last] + h[last]/6*(2*sigma[n-1]+sigma[last])
}

// fitPCHIP computes Fritsch–Carlson monotone slopes into m.
func fitPCHIP(x, y, m []float64) {
	n := len(x)
	var stack [2 * stackKnots]float64
	work := stack[:]
	if need := 2 * (n - 1); need > len(work) {
		work = make([]float64, need)
	}
	h, delta := work[:n-1:n-1], work[n-1:2*(n-1)]
	for i := 0; i < n-1; i++ {
		h[i] = x[i+1] - x[i]
		delta[i] = (y[i+1] - y[i]) / h[i]
	}
	// Interior slopes: weighted harmonic mean when the secants agree in
	// sign, zero otherwise (local extremum).
	for i := 1; i < n-1; i++ {
		if delta[i-1]*delta[i] <= 0 {
			m[i] = 0
			continue
		}
		w1 := 2*h[i] + h[i-1]
		w2 := h[i] + 2*h[i-1]
		m[i] = (w1 + w2) / (w1/delta[i-1] + w2/delta[i])
	}
	// Endpoint slopes: one-sided three-point estimate, clipped to
	// preserve monotonicity and shape.
	m[0] = edgeSlope(h[0], h[min(1, n-2)], delta[0], delta[min(1, n-2)])
	m[n-1] = edgeSlope(h[n-2], h[max(0, n-3)], delta[n-2], delta[max(0, n-3)])
}

// edgeSlope is the standard PCHIP endpoint slope formula with the
// Fritsch–Carlson shape-preserving clips applied.
func edgeSlope(h0, h1, d0, d1 float64) float64 {
	s := ((2*h0+h1)*d0 - h0*d1) / (h0 + h1)
	if s*d0 <= 0 {
		return 0
	}
	if d0*d1 < 0 && absF(s) > 3*absF(d0) {
		return 3 * d0
	}
	return s
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
