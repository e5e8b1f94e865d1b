package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending, so summarize must sort
	}
	return xs
}

func TestSummarizeTailHasTenBeyond(t *testing.T) {
	cases := []struct {
		n     int
		tailP float64
		tail  float64
	}{
		{39, 0, 0},
		{40, 75, 30},
		{100, 90, 90},
		{999, 98, 980},
		{1000, 99, 990},
		{10000, 99.9, 9990},
	}
	for _, c := range cases {
		s := summarize(seq(c.n))
		if s.N != c.n || s.TailP != c.tailP || s.TailMS != c.tail {
			t.Errorf("n=%d: got %+v, want tail p%v = %v", c.n, s, c.tailP, c.tail)
		}
		if c.tailP > 0 {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > s.TailMS {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d: only %d samples beyond p%v", c.n, beyond, s.TailP)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("empty median = %v", got)
	}
	if s := summarize(seq(11)); s.P50 != 6 || s.TailP != 0 {
		t.Errorf("small sample: %+v, want median only", s)
	}
}

func TestOpenLoopCountsFromDueTime(t *testing.T) {
	var o openLoop
	due := time.Unix(100, 0)
	// Sent 5ms late, answered 2ms after sending: 7ms from due.
	o.add(due, due.Add(5*time.Millisecond), due.Add(7*time.Millisecond))
	o.add(due, due, due.Add(time.Millisecond))
	if o.latencyMS[0] != 7 || o.lateMS[0] != 5 || o.latencyMS[1] != 1 || o.lateMS[1] != 0 {
		t.Errorf("latency %v lateness %v", o.latencyMS, o.lateMS)
	}
}
