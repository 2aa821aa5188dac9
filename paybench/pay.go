package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"time"

	"stellar/internal/herder"
	"stellar/internal/ledger"
)

// payAccounts is the number of funded sources in pay: enough that no
// source has two payments in flight at 400 tx/s, so accounts are not
// the limit.
const payAccounts = 10_000

// setupRepeats is how many times a single-process run builds its set-up,
// and partSetups how many times each process of a split run does; setup_s
// is the median of them all. One set-up takes about half a second, short
// enough that host noise moves a single sample by a third.
const (
	setupRepeats = 5
	partSetups   = 2
)

// payParts is how many processes share an untraced pay run, each with
// validators and a network of its own. Two things set a run's
// confirmation times apart from the next run's, and a longer step in one
// process averages neither. On a 2-vCPU VM a process's times could stay
// for its whole life at one of two levels about 15% apart: with the same
// seed, the trigger's median took 50 ms in one process and 115 ms in the
// next. And whether a multi-second nomination stall, with the backlog
// behind it, falls in the timed window depends on the validator keys:
// with the same keys, both processes of a run stalled at the same ledger
// of their windows. Pooling the ledgers of processes with their own keys
// averages both.
const payParts = 2

// payPlan is the offered schedule of a pay or pay-hot run lasting d, as
// the processes that run it: each inner list runs in order on its own
// freshly built cluster. split shares pay's steps out over payParts
// processes.
func payPlan(hot, split bool, d time.Duration, accounts int) [][]step {
	if hot {
		// 32 sources, each offering 5 payments/s with consecutive
		// sequence numbers and at most 5 in flight: a chain per source.
		return [][]step{{{Name: "chains", Rate: 160, Sources: 32, SourceWindow: 5, Duration: d,
			Latency: true, Capacity: true}}}
	}
	parts := 1
	if split {
		parts = payParts
	}
	d1 := d * 3 / 5
	steps := []step{
		// More than the cluster can apply, held to three full ledgers in
		// flight: every ledger is full, nothing is refused. It runs first
		// so that every process times confirmations after the same load.
		{Name: "capacity", Rate: 1600, Sources: accounts, Window: 3 * ledger.DefaultMaxTxSetSize,
			Duration: (d - d1) / time.Duration(parts), Capacity: true},
		// ~60% of capacity, open loop: a user's confirmation time. The
		// untimed margins start the timed window on a pool of its steady
		// size and fill the ledgers at its edges as the middle ones are.
		{Name: "confirm", Rate: 400, Sources: accounts, Duration: d1 / time.Duration(parts), Latency: true,
			Margin: min(1250*time.Millisecond, d/10)},
	}
	plan := make([][]step, parts)
	for i := range plan {
		plan[i] = steps
	}
	return plan
}

// partResult is what one process of a pay or pay-hot run measured. A
// split run pools its parts' results.
type partResult struct {
	Setups         []float64     `json:"setup_s"`
	Steps          []*stepResult `json:"steps"`
	LedgerMedians  []float64     `json:"ledger_median_latency_s"` // latency steps: each ledger's median
	Intervals      []float64     `json:"close_intervals_s"`       // latency steps: every validator's close gaps
	CapacityTxs    []int         `json:"capacity_ledger_txs"`     // capacity steps: validator 0's txs per counted close
	CapacitySecs   float64       `json:"capacity_s"`              // capacity steps: the time those closes took
	HeapMiB        float64       `json:"heap_mib"`
	LedgersChecked uint32        `json:"ledgers_checked"`
	Errs           []string      `json:"errors,omitempty"`
}

// runPay runs pay (hot=false) or pay-hot (hot=true). An untraced pay run
// runs each part of its plan in a child process; a traced run keeps its
// spans and the validators' registries in one process.
func runPay(cfg runConfig, hot bool) (*outcome, error) {
	out := newOutcome()
	split := !hot && !cfg.Traced
	plan := payPlan(hot, split, cfg.Measure, cfg.Accounts)
	var parts []*partResult
	if split {
		for i := range plan {
			p, err := spawnPart(cfg, i)
			if err != nil {
				return nil, err
			}
			parts = append(parts, p)
		}
	} else {
		p, err := runPayPart(cfg, 0, plan[0], setupRepeats, out)
		if err != nil {
			return nil, err
		}
		parts = append(parts, p)
	}
	payFigures(out, parts, hot)
	return out, nil
}

// runPayPart builds part's cluster setups times, keeps the last, offers
// steps on it and measures them. Each part has its own validators,
// network and payments, all derived from the seed. A traced run also
// files its per-layer figures in out.
func runPayPart(cfg runConfig, part int, steps []step, setups int, out *outcome) (*partResult, error) {
	p := &partResult{}
	base := part * len(steps) // step numbers within the whole plan
	var c *cluster
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		built, err := newCluster(cfg.Seed*payParts+int64(part), cfg.Accounts, cfg.Traced)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		p.Setups = append(p.Setups, time.Since(t0).Seconds())
		if i < setups-1 {
			built.close()
			continue
		}
		c = built
	}

	gen := newGenerator(cfg.Seed, c.networkID, c.accounts, numValidators, runtime.NumCPU(), c.submit)
	gen.proc = c.tracer.Proc(benchProc)
	c.onApplied = gen.track.applied
	before := c.snapshot()
	if err := c.start(); err != nil {
		c.close()
		return nil, err
	}
	gcc := startGCClock()
	timedStart := time.Now()
	results := make([]*stepResult, len(steps))
	var gcRatio float64
	for i, s := range steps {
		results[i] = gen.offer(base+i, s, numValidators)
		if s.Capacity {
			// The capacity step leaves the deepest pool: measure before it
			// drains, and read the GC's share before forcing a collection.
			gcRatio = gcc.ratio()
			p.HeapMiB = c.quiescentHeapMiB()
		}
		gen.drain(base+i, results[i])
	}
	timed := time.Since(timedStart)
	c.close()
	after := c.snapshot()

	if top, err := c.checkHeaders(); err != nil {
		p.Errs = append(p.Errs, err.Error())
	} else {
		p.LedgersChecked = top
	}
	gen.track.mu.Lock()
	p.Errs = append(p.Errs, gen.track.errs...)
	gen.track.mu.Unlock()
	for _, r := range results {
		if r.Step.Latency {
			p.LedgerMedians = append(p.LedgerMedians, r.ledgerMedians...)
			p.Intervals = append(p.Intervals, c.closeIntervals(r.Start, r.End)...)
		}
		if r.Step.Capacity {
			txs, secs := c.capacity(r.Start, r.End)
			p.CapacityTxs = append(p.CapacityTxs, txs...)
			p.CapacitySecs += secs
		}
	}
	p.Steps = results

	if cfg.Traced {
		c.layerMetrics(out, results, before, after, timed)
		out.set("runtime.gc_cpu_ratio", gcRatio, 1)
		exportSpans(c.tracer, cfg, out)
	}
	return p, nil
}

// payFigures pools the parts of a run into its end-to-end figures, its
// operation tally and its correctness failures.
func payFigures(out *outcome, parts []*partResult, hot bool) {
	var setups, medians, intervals []float64
	var capTxs []int
	var capSecs, heapMiB float64
	for _, p := range parts {
		setups = append(setups, p.Setups...)
		medians = append(medians, p.LedgerMedians...)
		intervals = append(intervals, p.Intervals...)
		capTxs = append(capTxs, p.CapacityTxs...)
		capSecs += p.CapacitySecs
		heapMiB = max(heapMiB, p.HeapMiB)
		out.errs = append(out.errs, p.Errs...)
		for _, r := range p.Steps {
			out.attempted += r.Offered
			out.failed += r.failures()
		}
	}
	su, lat, iv := Summarize(setups), Summarize(medians), Summarize(intervals)
	out.set("setup_s", su.P50, su.N)
	// Typical confirmation time: the median over ledgers of each ledger's
	// median latency. The tail, which a nomination stall sets, is the
	// traced run's gen.submit_applied_p99_s.
	out.set("latency_p50_s", lat.P50, lat.N)
	out.set("ledger_s", iv.P50, iv.N)
	txs := 0
	for _, n := range capTxs {
		txs += n
	}
	out.set("throughput_tx_per_s", ratio(float64(txs), capSecs), len(capTxs))
	out.set("heap_peak_mib", heapMiB, 1)
	if !hot {
		// The capacity figure is the close period's only while every
		// ledger is full; with partial ledgers it tends to the window over
		// the latency instead, a figure of the benchmark, not the cluster.
		short := 0
		for _, n := range capTxs {
			if n < ledger.DefaultMaxTxSetSize {
				short++
			}
		}
		out.detail["throughput_short_ledgers"] = short
		if short > 0 {
			fmt.Fprintf(os.Stderr, "paybench: %d of %d capacity-step ledgers held fewer than %d txs: %v\n",
				short, len(capTxs), ledger.DefaultMaxTxSetSize, capTxs)
		}
	}
	out.detail["parts"] = parts
	out.detail["ledger_median_latency_s"] = lat
	out.detail["close_interval_s"] = iv
}

// partEnv, when set in a process's environment, makes it run one part of
// a split pay run instead of a workload: the value is the part's
// partRequest as JSON, and the process prints its partResult as JSON.
const partEnv = "PAYBENCH_PART"

type partRequest struct {
	Config runConfig `json:"config"`
	Part   int       `json:"part"`
}

// spawnPart runs part i of a split pay run in a child process, this
// program again, and waits for it to end.
func spawnPart(cfg runConfig, i int) (*partResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	req, err := json.Marshal(partRequest{Config: cfg, Part: i})
	if err != nil {
		return nil, err
	}
	var stdout bytes.Buffer
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), partEnv+"="+string(req))
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("part %d: %w", i, err)
	}
	var p partResult
	if err := json.Unmarshal(stdout.Bytes(), &p); err != nil {
		return nil, fmt.Errorf("part %d: result: %w", i, err)
	}
	return &p, nil
}

// runPart is a child process's whole life: it runs the part req names,
// prints what it measured and returns the exit code.
func runPart(req string) int {
	var r partRequest
	if err := json.Unmarshal([]byte(req), &r); err != nil {
		fmt.Fprintf(os.Stderr, "paybench: part request: %v\n", err)
		return 2
	}
	cfg := r.Config
	cfg.Measure = time.Duration(cfg.Seconds) * time.Second
	plan := payPlan(false, true, cfg.Measure, cfg.Accounts)
	if r.Part < 0 || r.Part >= len(plan) {
		fmt.Fprintf(os.Stderr, "paybench: part %d of a %d-part plan\n", r.Part, len(plan))
		return 2
	}
	p, err := runPayPart(cfg, r.Part, plan[r.Part], partSetups, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "paybench: part %d: %v\n", r.Part, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(p); err != nil {
		fmt.Fprintf(os.Stderr, "paybench: part %d: %v\n", r.Part, err)
		return 1
	}
	return 0
}

// submit admits tx on validator v under that validator's loop lock, the
// way horizon's submit handler does, timing the wait for the lock and the
// admission itself.
func (c *cluster) submit(v int, tx *ledger.Transaction) (herder.AdmitCode, time.Duration, time.Duration) {
	val := c.vals[v]
	t0 := time.Now()
	val.lock.Lock()
	t1 := time.Now()
	res := val.node.AdmitTx(tx)
	t2 := time.Now()
	if val.env != nil {
		val.env.hold(t2.Sub(t1))
	}
	val.lock.Unlock()
	return res.Code, t1.Sub(t0), t2.Sub(t1)
}

// quiescentHeapMiB is liveHeapMiB with every validator's loop held, so
// no callback is part way through a close when the collector runs: a
// collection in mid-close also counts the close's transient state.
func (c *cluster) quiescentHeapMiB() float64 {
	for _, v := range c.vals {
		v.lock.Lock()
	}
	defer func() {
		for _, v := range c.vals {
			v.lock.Unlock()
		}
	}()
	return liveHeapMiB()
}

// closeIntervals are the wall-clock gaps between consecutive closes on
// every validator, for closes inside [from, to]. Read after close.
func (c *cluster) closeIntervals(from, to time.Time) []float64 {
	var out []float64
	for _, v := range c.vals {
		var prev time.Time
		for _, at := range v.closeAt {
			if at.Before(from) || at.After(to) {
				continue
			}
			if !prev.IsZero() {
				out = append(out, at.Sub(prev).Seconds())
			}
			prev = at
		}
	}
	return out
}

// capacity returns validator 0's successful txs for each close inside
// [from, to] after the first, and the time from that first close to the
// last: whole ledgers only, so a partial ledger at either edge cannot skew
// the rate. Read after close.
func (c *cluster) capacity(from, to time.Time) ([]int, float64) {
	v := c.vals[0]
	var first, last time.Time
	var perLedger []int
	for i, at := range v.closeAt {
		if at.Before(from) || at.After(to) {
			continue
		}
		if first.IsZero() {
			first = at
			continue
		}
		perLedger = append(perLedger, v.closeTxs[i])
		last = at
	}
	if len(perLedger) == 0 {
		return nil, 0
	}
	return perLedger, last.Sub(first).Seconds()
}
