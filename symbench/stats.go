package main

import (
	"math"
	"sort"
	"time"
)

// summary is a latency distribution as the benchmark reports it: the
// median, and the highest percentile of tailLadder that has at least
// ten samples beyond it. Below forty samples only the median is given.
type summary struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P95 float64 `json:"p95"`
	// P99 is set from 1000 samples up, when ten lie beyond it.
	P99    float64 `json:"p99,omitempty"`
	TailP  float64 `json:"tail_p,omitempty"`
	TailMS float64 `json:"tail,omitempty"`
}

var tailLadder = []float64{99.9, 99.5, 99, 98, 95, 90, 80, 75}

// percentile returns the nearest-rank p-th percentile of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(p*float64(len(sorted))/100-1e-9)) - 1
	k = max(0, min(k, len(sorted)-1))
	return sorted[k]
}

// tailPercentile returns the highest percentile of the ladder with at
// least ten of n samples above it, or 0 when n < 40.
func tailPercentile(n int) float64 {
	if n < 40 {
		return 0
	}
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10-1e-6 {
			return p
		}
	}
	return 0
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s), P50: percentile(s, 50), P90: percentile(s, 90), P95: percentile(s, 95)}
	if len(s) >= 1000 {
		out.P99 = percentile(s, 99)
	}
	if p := tailPercentile(len(s)); p > 0 {
		out.TailP = p
		out.TailMS = percentile(s, p)
	}
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// openLoop records an open-loop phase: each request's due time, when
// a sender actually sent it, and when its answer was complete.
// Latency counts from the due time, so a stall also delays every
// request due behind it; lateness is how far the sender ran behind.
type openLoop struct {
	latencyMS []float64
	lateMS    []float64
}

func (o *openLoop) add(due, sent, done time.Time) {
	o.latencyMS = append(o.latencyMS, ms(done.Sub(due)))
	o.lateMS = append(o.lateMS, ms(sent.Sub(due)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
