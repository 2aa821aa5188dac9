package experiments

import (
	"math"
	"slices"
	"time"
)

// Summary reduces a run's per-close record (SimNetwork.Closes) to the
// figures the experiment tables print.
type Summary struct {
	// Nomination and Balloting cover the closes where the phase was
	// measured; LedgerUpdate and CloseInterval cover every close.
	Nomination, Balloting, LedgerUpdate, CloseInterval Latency
	// TxPerLedger covers every close; the consensus counts cover the
	// closes the validator took part in (CloseStats.Participated).
	TxPerLedger, NominationTimeouts, BallotTimeouts, Envelopes Counts
}

// Latency summarizes duration samples: an integer-nanosecond mean and
// the nearest-rank 99th percentile.
type Latency struct {
	N         int
	Mean, P99 time.Duration
}

// Counts summarizes integer samples: mean, sample standard deviation and
// nearest-rank percentiles.
type Counts struct {
	N             int
	Mean, Stddev  float64
	P75, P99, Max int
}

// Summary reduces the per-close records of the given validators (all of
// them when none are named), concatenated in node order.
func (s *SimNetwork) Summary(nodes ...int) Summary {
	if len(nodes) == 0 {
		for i := range s.Closes {
			nodes = append(nodes, i)
		}
	}
	var nom, bal, upd, gap []time.Duration
	var txs, nomTO, balTO, env []int
	for _, i := range nodes {
		for _, c := range s.Closes[i] {
			upd = append(upd, c.LedgerUpdate)
			gap = append(gap, c.CloseInterval)
			txs = append(txs, c.Txs)
			if c.NominationMeasured {
				nom = append(nom, c.Nomination)
			}
			if c.BallotingMeasured {
				bal = append(bal, c.Balloting)
			}
			if c.Participated {
				nomTO = append(nomTO, c.NominationTimeouts)
				balTO = append(balTO, c.BallotTimeouts)
				env = append(env, c.Envelopes)
			}
		}
	}
	return Summary{
		Nomination:         latency(nom),
		Balloting:          latency(bal),
		LedgerUpdate:       latency(upd),
		CloseInterval:      latency(gap),
		TxPerLedger:        counts(txs),
		NominationTimeouts: counts(nomTO),
		BallotTimeouts:     counts(balTO),
		Envelopes:          counts(env),
	}
}

func latency(ds []time.Duration) Latency {
	l := Latency{N: len(ds)}
	if len(ds) == 0 {
		return l
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	l.Mean = sum / time.Duration(len(ds))
	slices.Sort(ds)
	l.P99 = percentile(ds, 99)
	return l
}

func counts(xs []int) Counts {
	c := Counts{N: len(xs)}
	if len(xs) == 0 {
		return c
	}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	c.Mean = float64(sum) / float64(len(xs))
	if len(xs) > 1 {
		var acc float64
		for _, x := range xs {
			d := float64(x) - c.Mean
			acc += d * d
		}
		c.Stddev = math.Sqrt(acc / float64(len(xs)-1))
	}
	slices.Sort(xs)
	c.P75, c.P99, c.Max = percentile(xs, 75), percentile(xs, 99), percentile(xs, 100)
	return c
}

// percentile returns the p-th percentile (0 < p ≤ 100) of sorted samples
// by nearest rank, or zero with no samples.
func percentile[T int | time.Duration](sorted []T, p float64) T {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[max(0, min(rank, len(sorted)-1))]
}
