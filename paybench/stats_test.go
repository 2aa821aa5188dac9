package main

import (
	"math"
	"testing"
	"time"

	"stellar/internal/obs"
)

func TestSummarizeCountsAndPercentiles(t *testing.T) {
	var v []float64
	for i := 100; i >= 1; i-- { // unsorted on purpose
		v = append(v, float64(i))
	}
	d := Summarize(v)
	if d.N != 100 || d.P50 != 50 || d.P99 != 99 || d.Max != 100 {
		t.Fatalf("Summarize(1..100) = %+v, want n=100 p50=50 p99=99 max=100", d)
	}
	if v[0] != 100 {
		t.Fatalf("Summarize reordered its input: v[0] = %v", v[0])
	}
	if d := Summarize(nil); d != (Dist{}) {
		t.Fatalf("Summarize(nil) = %+v, want zero with n=0", d)
	}
	one := Summarize([]float64{7})
	if one.N != 1 || one.P50 != 7 || one.P99 != 7 {
		t.Fatalf("Summarize([7]) = %+v", one)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 1}, {0.5, 2}, {0.51, 3}, {0.99, 4}, {1, 4}} {
		if got := Quantile(v, c.q); got != c.want {
			t.Errorf("Quantile(%v, %v) = %v, want %v", v, c.q, got, c.want)
		}
	}
}

func TestUnitConversionsAndRatio(t *testing.T) {
	ds := []time.Duration{1500 * time.Millisecond, 2 * time.Millisecond}
	if ms := millis(ds); ms[0] != 1500 || ms[1] != 2 {
		t.Errorf("millis = %v", ms)
	}
	if r := ratio(1, 0); r != 0 {
		t.Errorf("ratio(1, 0) = %v, want 0", r)
	}
	if r := ratio(1, 4); math.Abs(r-0.25) > 1e-12 {
		t.Errorf("ratio(1, 4) = %v", r)
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	ms := func(n int) int64 { return int64(n) * int64(time.Millisecond) }
	spans := []obs.ExportSpan{
		{ID: 1, Name: "ledger", StartNanos: 0, EndNanos: ms(100)},
		{ID: 2, Parent: 1, Name: "close", StartNanos: ms(10), EndNanos: ms(30)},
		{ID: 3, Parent: 1, Name: "trigger", StartNanos: ms(20), EndNanos: ms(50)},    // overlaps close
		{ID: 4, Parent: 1, Name: "packet-tx", StartNanos: ms(90), EndNanos: ms(120)}, // runs past the parent
		{ID: 5, Parent: 1, Name: "deferred", StartNanos: ms(60), EndNanos: ms(80), Open: true},
	}
	got := selfTimes(spans)
	// Children cover [10,50) and [90,100): 50ms of the ledger's 100. The
	// open span counts neither itself nor against its parent.
	if got["ledger"] != 50*time.Millisecond {
		t.Errorf("ledger self = %v, want 50ms", got["ledger"])
	}
	if got["close"] != 20*time.Millisecond || got["trigger"] != 30*time.Millisecond ||
		got["packet-tx"] != 30*time.Millisecond {
		t.Errorf("leaf self times = %v", got)
	}
	if _, ok := got["deferred"]; ok {
		t.Errorf("open span has a self time: %v", got["deferred"])
	}
}
