package experiments

import (
	"math"
	"testing"
	"time"

	"stellar/internal/herder"
)

func TestPercentile(t *testing.T) {
	hundred := make([]int, 100)
	for i := range hundred {
		hundred[i] = i + 1
	}
	for _, c := range []struct {
		name   string
		sorted []int
		p      float64
		want   int
	}{
		{"empty", nil, 99, 0},
		{"one sample", []int{7}, 50, 7},
		{"p100 is the max", []int{1, 2, 3}, 100, 3},
		{"rank rounds up", []int{1, 2, 3, 4}, 51, 3},
		{"exact rank", []int{1, 2, 3, 4}, 50, 2},
		{"p75 of five", []int{0, 0, 0, 1, 4}, 75, 1},
		{"p99 of a hundred", hundred, 99, 99},
		{"tiny p clamps to the min", []int{5, 6}, 0.1, 5},
	} {
		if got := percentile(c.sorted, c.p); got != c.want {
			t.Errorf("%s: percentile(%v, %v) = %d, want %d", c.name, c.sorted, c.p, got, c.want)
		}
	}
}

func TestSummaryEmpty(t *testing.T) {
	if l := latency(nil); l != (Latency{}) {
		t.Errorf("latency(nil) = %+v, want zero", l)
	}
	if c := counts(nil); c != (Counts{}) {
		t.Errorf("counts(nil) = %+v, want zero", c)
	}
}

func TestLatencySummary(t *testing.T) {
	// The duration mean is integer nanoseconds, truncated: 10ns/3.
	l := latency([]time.Duration{3, 3, 4})
	if l.N != 3 || l.Mean != 3 || l.P99 != 4 {
		t.Errorf("latency = %+v, want N=3 Mean=3ns P99=4ns", l)
	}
	var ms []time.Duration
	for i := 100; i >= 1; i-- {
		ms = append(ms, time.Duration(i)*time.Millisecond)
	}
	l = latency(ms)
	if l.N != 100 || l.Mean != 50500*time.Microsecond || l.P99 != 99*time.Millisecond {
		t.Errorf("latency(1..100ms) = %+v, want N=100 Mean=50.5ms P99=99ms", l)
	}
}

func TestCountsPercentiles(t *testing.T) {
	c := counts([]int{4, 0, 1, 0, 0})
	if c.N != 5 || c.Mean != 1 || c.P75 != 1 || c.P99 != 4 || c.Max != 4 {
		t.Errorf("counts = %+v", c)
	}
}

func TestCountsStddev(t *testing.T) {
	// Sample (n-1) standard deviation: squares sum to 9+1+0+1+1 = 12.
	c := counts([]int{4, 0, 1, 0, 0})
	if want := math.Sqrt(12.0 / 4); c.Stddev != want {
		t.Errorf("stddev = %v, want %v", c.Stddev, want)
	}
	if c := counts([]int{5}); c.Stddev != 0 {
		t.Errorf("stddev of one sample = %v", c.Stddev)
	}
}

// closesOf builds a one-validator record from close intervals in ms.
func closesOf(ms ...int) [][]herder.CloseStats {
	var cs []herder.CloseStats
	for i, m := range ms {
		cs = append(cs, herder.CloseStats{Seq: uint32(i + 2), CloseInterval: time.Duration(m) * time.Millisecond})
	}
	return [][]herder.CloseStats{cs}
}

func TestSummaryAfterLaterCloses(t *testing.T) {
	s := &SimNetwork{Closes: closesOf(5)}
	if got := s.Summary().CloseInterval; got.N != 1 || got.P99 != 5*time.Millisecond {
		t.Fatalf("first summary = %+v", got)
	}
	s.Closes[0] = append(s.Closes[0], herder.CloseStats{Seq: 3, CloseInterval: 9 * time.Millisecond})
	if got := s.Summary().CloseInterval; got.N != 2 || got.Mean != 7*time.Millisecond || got.P99 != 9*time.Millisecond {
		t.Fatalf("summary after a later close = %+v, want N=2 Mean=7ms P99=9ms", got)
	}
}

func TestSummaryLeavesClosesInOrder(t *testing.T) {
	s := &SimNetwork{Closes: closesOf(9, 1, 5)}
	_ = s.Summary()
	for i, want := range []uint32{2, 3, 4} {
		if got := s.Closes[0][i].Seq; got != want {
			t.Fatalf("Closes[0][%d].Seq = %d after Summary, want %d (record reordered)", i, got, want)
		}
	}
}
