package main

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"time"

	"stellar/internal/herder"
	"stellar/internal/ledger"
	"stellar/internal/obs"
	"stellar/internal/stellarcrypto"
)

// step is one phase of offered load. Transactions are scheduled open-loop
// at Rate; a Window (in flight across the step) or SourceWindow (in
// flight per source) holds a send until an earlier transaction applies.
// A held send is due when its slot frees, so a window turns the step
// into a saturating closed loop whose latency excludes the client's own
// queue. Latency and Capacity name the figures a step's ledgers set.
// Margin extends the load, untimed, before and after the step.
type step struct {
	Name         string        `json:"name"`
	Rate         float64       `json:"rate_tx_per_s"`
	Sources      int           `json:"sources"`
	Window       int           `json:"window,omitempty"`
	SourceWindow int           `json:"source_window,omitempty"`
	Duration     time.Duration `json:"duration_ns"`
	Latency      bool          `json:"latency,omitempty"`  // latency_p50_s and ledger_s
	Capacity     bool          `json:"capacity,omitempty"` // throughput_tx_per_s
	Margin       time.Duration `json:"margin_ns,omitempty"`
}

// submitFunc hands one signed transaction to validator v and reports the
// admission code, how long the caller waited for the validator's loop and
// how long admission held it.
type submitFunc func(v int, tx *ledger.Transaction) (code herder.AdmitCode, wait, admit time.Duration)

// txRec follows one offered transaction.
type txRec struct {
	step      int
	validator int
	due       time.Time
	applied   time.Time
	seq       uint32 // ledger the tx applied in
	code      herder.AdmitCode
	state     txState
	timed     bool      // due inside the step's timed window, not its margins
	open      bool      // counted in tracker.open
	slots     []window  // window slots to free when the tx settles
	span      *obs.Span // root span of the traced run, from the first attempt
	attempt   time.Time
}

type txState uint8

const (
	txPending txState = iota
	txApplied
	txFailed  // in a ledger, but failed
	txRefused // refused at admission
	txExpired // accepted, but not in a ledger by the drain deadline
)

// tracker matches the validators' ledger results against what was
// offered. It is shared by the submitters and every validator's
// OnLedgerClose, so all of it sits under mu.
type tracker struct {
	mu      sync.Mutex
	recs    map[stellarcrypto.Hash]*txRec
	open    map[int]int                  // step → accepted txs not yet in a ledger
	applies []map[stellarcrypto.Hash]int // per validator: times each hash was in a ledger
	errs    []string
}

func newTracker(validators int) *tracker {
	t := &tracker{recs: make(map[stellarcrypto.Hash]*txRec), open: make(map[int]int)}
	for i := 0; i < validators; i++ {
		t.applies = append(t.applies, make(map[stellarcrypto.Hash]int))
	}
	return t
}

func (t *tracker) errorf(format string, args ...any) {
	if len(t.errs) < 20 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

// offer registers a transaction before it is submitted; a hash offered
// twice is a correctness failure.
func (t *tracker) offer(h stellarcrypto.Hash, r *txRec) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.recs[h]; dup {
		t.errorf("tx %s offered twice", h.Hex())
		return
	}
	t.recs[h] = r
}

// admitted records the admission outcome; a refusal frees its slots.
func (t *tracker) admitted(r *txRec, code herder.AdmitCode) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r.code = code
	switch {
	case code != herder.AdmitAccepted:
		r.state = txRefused
		r.free()
	case r.state == txPending: // not already in a ledger
		r.open = true
		t.open[r.step]++
	}
}

// applied records one validator's ledger results. The transaction's own
// validator settles it; every validator's results are checked.
func (t *tracker) applied(v int, seq uint32, results []ledger.TxResult, at time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, res := range results {
		r, ok := t.recs[res.TxHash]
		if !ok {
			t.errorf("validator %d applied tx %s that was never offered", v, res.TxHash.Hex())
			continue
		}
		t.applies[v][res.TxHash]++
		if n := t.applies[v][res.TxHash]; n > 1 {
			t.errorf("validator %d applied tx %s %d times", v, res.TxHash.Hex(), n)
		}
		if r.validator != v || r.state != txPending {
			continue
		}
		r.applied, r.seq = at, seq
		r.state = txApplied
		if !res.Success {
			r.state = txFailed
		}
		if r.open {
			r.open = false
			t.open[r.step]--
		}
		r.free()
	}
}

// free returns the tx's window slots, stamped with the time they freed.
func (r *txRec) free() {
	now := time.Now()
	for _, w := range r.slots {
		w <- now
	}
	r.slots = nil
}

// window bounds transactions in flight. Each slot is a token carrying
// the time it last freed, so a send that waited for one is charged from
// that moment, not from whenever its submitter got round to it.
type window chan time.Time

func newWindow(n int) window {
	w := make(window, n) // sized to its slots: a return never blocks
	for i := 0; i < n; i++ {
		w <- time.Time{}
	}
	return w
}

// acquire takes a slot in each non-nil window and reports the latest
// time any of them freed. If stop closes first it gives back what it
// took and reports false.
func acquire(stop <-chan struct{}, windows ...window) (slots []window, freed time.Time, ok bool) {
	var stamps []time.Time
	for _, w := range windows {
		if w == nil {
			continue
		}
		select {
		case t := <-w:
			slots, stamps = append(slots, w), append(stamps, t)
			if t.After(freed) {
				freed = t
			}
		case <-stop:
			for i, s := range slots {
				s <- stamps[i]
			}
			return nil, time.Time{}, false
		}
	}
	return slots, freed, true
}

// pending counts the step's accepted transactions not yet in a ledger.
func (t *tracker) pending(stepIdx int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.open[stepIdx]
}

// stepResult is what one step's transactions came to.
type stepResult struct {
	Step       step           `json:"step"`
	Start      time.Time      `json:"-"`
	End        time.Time      `json:"-"`
	Offered    int            `json:"offered"`
	Applied    int            `json:"applied"`
	Failed     int            `json:"failed"`
	Refused    map[string]int `json:"refused"`
	Unapplied  int            `json:"unapplied_at_deadline"`
	Latency    []float64      `json:"-"` // seconds from due to applied, applied timed txs only
	Late       []float64      `json:"-"` // ms each send attempt ran behind its due time
	AdmitWait  []float64      `json:"-"` // ms waiting for the validator's loop
	AdmitTime  []float64      `json:"-"` // µs admission held the loop
	LatencySum Dist           `json:"latency_s"`
	// PerLedger summarizes the median latency of each ledger that carries
	// a timed tx, over all the step's txs in it, margins included, so a
	// ledger at either edge of the timed window is a whole ledger: a
	// stalled ledger is one sample, not hundreds.
	PerLedger     Dist      `json:"ledger_median_latency_s"`
	ledgerMedians []float64 // the sample PerLedger summarizes
}

// failures is every offered transaction that did not apply: refused,
// failed in its ledger, or still pending at the drain deadline.
func (r *stepResult) failures() int {
	n := r.Failed + r.Unapplied
	for _, c := range r.Refused {
		n += c
	}
	return n
}

// generator drives steps against a cluster's validators.
type generator struct {
	seed      int64
	networkID stellarcrypto.Hash
	accounts  []account // shuffled: sources first
	nextSeq   []uint64  // per account, owned by the account's submitter
	submit    submitFunc
	track     *tracker
	workers   int
	proc      *obs.Proc // records spans in traced runs
	drainMax  time.Duration
}

func newGenerator(seed int64, networkID stellarcrypto.Hash, accts []account, validators, workers int, submit submitFunc) *generator {
	g := &generator{
		seed: seed, networkID: networkID, accounts: accts, submit: submit,
		track: newTracker(validators), workers: max(workers, 1), drainMax: 30 * time.Second,
	}
	g.nextSeq = make([]uint64, len(accts))
	for i, a := range accts {
		g.nextSeq[i] = a.seq + 1
	}
	return g
}

// destination picks the payee of the k-th transaction of a step from the
// seed alone, so inputs do not depend on goroutine timing.
func (g *generator) destination(stepIdx, k, src int) int {
	var b [24]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(g.seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(stepIdx))
	binary.LittleEndian.PutUint64(b[16:], uint64(k))
	h := stellarcrypto.HashBytes(b[:])
	d := int(binary.LittleEndian.Uint64(h[:8]) % uint64(len(g.accounts)-1))
	if d >= src {
		d++
	}
	return d
}

// dueTime is when a transaction is charged from: its scheduled send
// time, or the moment its window slot freed if that came later. Time the
// submitter then spends behind a busy loop is the system's, not the
// client's, so it stays in the latency.
func dueTime(scheduled, slotFree time.Time) time.Time {
	if slotFree.After(scheduled) {
		return slotFree
	}
	return scheduled
}

// offer sends one step's schedule, margins included, and returns when
// the step's time is up and every submitter has finished. The result's
// Start and End bound the timed window.
func (g *generator) offer(stepIdx int, s step, validators int) *stepResult {
	res := &stepResult{Step: s, Refused: map[string]int{}}
	var global window
	if s.Window > 0 {
		global = newWindow(s.Window)
	}
	perSource := make([]window, s.Sources)
	if s.SourceWindow > 0 {
		for i := range perSource {
			perSource[i] = newWindow(s.SourceWindow)
		}
	}
	total := int(s.Rate * (s.Duration + 2*s.Margin).Seconds())
	interval := time.Duration(float64(time.Second) / s.Rate)
	begin := time.Now()
	res.Start = begin.Add(s.Margin)
	res.End = res.Start.Add(s.Duration)
	// A send still waiting for a window slot when the step ends is never
	// offered.
	stop := make(chan struct{})
	timer := time.AfterFunc(s.Duration+2*s.Margin, func() { close(stop) })
	defer timer.Stop()
	var wg sync.WaitGroup
	var late, waits, admits [][]float64 = make([][]float64, g.workers), make([][]float64, g.workers), make([][]float64, g.workers)
	for w := 0; w < g.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < total; k++ {
				src := k % s.Sources
				if src%g.workers != w {
					continue
				}
				scheduled := begin.Add(time.Duration(k) * interval)
				if d := time.Until(scheduled); d > 0 {
					time.Sleep(d)
				}
				slots, freed, ok := acquire(stop, global, perSource[src])
				if !ok {
					return
				}
				due := dueTime(scheduled, freed)
				tx := g.payment(stepIdx, k, src)
				h := tx.Hash(g.networkID)
				v := src % validators
				rec := &txRec{step: stepIdx, validator: v, due: due, slots: slots,
					timed: !scheduled.Before(res.Start) && scheduled.Before(res.End)}
				g.track.offer(h, rec)
				root := g.proc.Span("client", "payment")
				attempt := time.Now()
				code, wait, admit := g.submit(v, tx)
				g.track.admitted(rec, code)
				if code == herder.AdmitAccepted {
					g.nextSeq[src]++
				}
				late[w] = append(late[w], float64(attempt.Sub(due))/float64(time.Millisecond))
				waits[w] = append(waits[w], float64(wait)/float64(time.Millisecond))
				admits[w] = append(admits[w], float64(admit)/float64(time.Microsecond))
				if root != nil {
					root.CompleteChild("admit-wait", wait)
					root.CompleteChild("admit-call", admit)
					root.Arg("tx", h.Hex())
					root.Arg("late_ms", fmt.Sprintf("%.3f", late[w][len(late[w])-1]))
					rec.span, rec.attempt = root, attempt
				}
			}
		}(w)
	}
	wg.Wait()
	for w := range late {
		res.Late = append(res.Late, late[w]...)
		res.AdmitWait = append(res.AdmitWait, waits[w]...)
		res.AdmitTime = append(res.AdmitTime, admits[w]...)
	}
	return res
}

// drain waits until every accepted transaction of the step has applied
// or the drain deadline passed, then tallies the step.
func (g *generator) drain(stepIdx int, res *stepResult) {
	deadline := time.Now().Add(g.drainMax)
	for g.track.pending(stepIdx) > 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	g.collect(stepIdx, res)
}

// run offers one step and drains it.
func (g *generator) run(stepIdx int, s step, validators int) *stepResult {
	res := g.offer(stepIdx, s, validators)
	g.drain(stepIdx, res)
	return res
}

// payment builds and signs the k-th payment of a step from source src.
// The amount encodes (step, k), so no two offers of a run share a hash,
// not even a retry of a refused sequence number.
func (g *generator) payment(stepIdx, k, src int) *ledger.Transaction {
	n := int64(stepIdx)*1_000_000 + int64(k+1) // k stays far below a million
	from := g.accounts[src]
	to := g.accounts[g.destination(stepIdx, k, src)]
	tx := &ledger.Transaction{
		Source: from.id,
		Fee:    ledger.DefaultBaseFee,
		SeqNum: g.nextSeq[src],
		Operations: []ledger.Operation{{
			Body: &ledger.Payment{Destination: to.id, Asset: ledger.NativeAsset(), Amount: ledger.Amount(n)},
		}},
	}
	tx.Sign(g.networkID, from.key)
	return tx
}

// collect tallies the step's records once submission and drain are over.
func (g *generator) collect(stepIdx int, res *stepResult) {
	g.track.mu.Lock()
	defer g.track.mu.Unlock()
	byLedger := map[uint32][]float64{}
	timedIn := map[uint32]bool{}
	for _, r := range g.track.recs {
		if r.step != stepIdx {
			continue
		}
		res.Offered++
		outcome := ""
		switch r.state {
		case txApplied:
			res.Applied++
			lat := r.applied.Sub(r.due).Seconds()
			byLedger[r.seq] = append(byLedger[r.seq], lat)
			if r.timed {
				res.Latency = append(res.Latency, lat)
				timedIn[r.seq] = true
			}
			r.span.EndAfter(r.applied.Sub(r.attempt))
		case txFailed:
			res.Failed++
			outcome = "failed"
		case txRefused:
			res.Refused[r.code.String()]++
			outcome = r.code.String()
		default:
			res.Unapplied++
			r.state = txExpired
			outcome = "expired"
		}
		if outcome != "" {
			// The span of a payment that never applied ends with its
			// admission.
			r.span.Arg("outcome", outcome)
			r.span.EndAfter(0)
		}
	}
	res.LatencySum = Summarize(res.Latency)
	seqs := make([]uint32, 0, len(timedIn))
	for seq := range timedIn {
		seqs = append(seqs, seq)
	}
	slices.Sort(seqs)
	medians := make([]float64, len(seqs)) // in ledger order, for the record
	for i, seq := range seqs {
		medians[i] = Quantile(byLedger[seq], 0.5)
	}
	res.PerLedger, res.ledgerMedians = Summarize(medians), medians
}
