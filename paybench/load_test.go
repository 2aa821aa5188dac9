package main

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"stellar/internal/herder"
	"stellar/internal/ledger"
	"stellar/internal/stellarcrypto"
)

func testAccounts(n int) []account {
	out := make([]account, n)
	for i := range out {
		kp := stellarcrypto.KeyPairFromString(fmt.Sprintf("paybench-test-%d", i))
		out[i] = account{id: ledger.AccountIDFromPublicKey(kp.Public), key: kp, seq: 100}
	}
	return out
}

// fakeNet stands in for the cluster: submit records accepted hashes, and
// close applies them as one ledger, the way OnLedgerClose reports.
type fakeNet struct {
	mu       sync.Mutex
	net      stellarcrypto.Hash
	accepted []stellarcrypto.Hash
	seq      uint32
	// decide picks each submission's admission code; hold delays the
	// k-th submission as a busy validator loop would.
	decide func(k int) herder.AdmitCode
	hold   func(k int) time.Duration
	calls  int
}

func (f *fakeNet) submit(v int, tx *ledger.Transaction) (herder.AdmitCode, time.Duration, time.Duration) {
	f.mu.Lock()
	k := f.calls
	f.calls++
	f.mu.Unlock()
	var wait time.Duration
	if f.hold != nil {
		wait = f.hold(k)
		time.Sleep(wait)
	}
	code := herder.AdmitAccepted
	if f.decide != nil {
		code = f.decide(k)
	}
	if code == herder.AdmitAccepted {
		f.mu.Lock()
		f.accepted = append(f.accepted, tx.Hash(f.net))
		f.mu.Unlock()
	}
	return code, wait, time.Microsecond
}

// close applies every accepted tx not yet applied, except those skip
// names, failing those fail names.
func (f *fakeNet) close(t *tracker, skip, fail map[int]bool) {
	f.mu.Lock()
	f.seq++
	var results []ledger.TxResult
	for i, h := range f.accepted {
		if h == (stellarcrypto.Hash{}) || skip[i] {
			continue
		}
		results = append(results, ledger.TxResult{TxHash: h, Success: !fail[i]})
		f.accepted[i] = stellarcrypto.Hash{}
	}
	seq := f.seq
	f.mu.Unlock()
	t.applied(0, seq, results, time.Now())
}

// closer runs f.close every period until stop is closed.
func closer(f *fakeNet, t *tracker, period time.Duration, skip, fail map[int]bool, stop chan struct{}) *sync.WaitGroup {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				f.close(t, skip, fail)
			}
		}
	}()
	return &wg
}

func TestDueTime(t *testing.T) {
	sched := time.Unix(100, 0)
	if got := dueTime(sched, sched.Add(-time.Second)); !got.Equal(sched) {
		t.Errorf("slot free before schedule: due %v, want the schedule", got)
	}
	if got := dueTime(sched, sched.Add(time.Second)); !got.Equal(sched.Add(time.Second)) {
		t.Errorf("slot freed late: due %v, want the slot time", got)
	}
}

// TestBusyLoopChargedFromDueTime: a send held behind a busy validator
// loop is charged from when it was due, and so is every send queued
// behind it on the same submitter.
func TestBusyLoopChargedFromDueTime(t *testing.T) {
	const hold = 300 * time.Millisecond
	f := &fakeNet{net: stellarcrypto.HashBytes([]byte("due")),
		hold: func(k int) time.Duration {
			if k == 0 {
				return hold
			}
			return 0
		}}
	g := newGenerator(1, f.net, testAccounts(4), 1, 1, f.submit)
	g.drainMax = 2 * time.Second
	stop := make(chan struct{})
	wg := closer(f, g.track, 20*time.Millisecond, nil, nil, stop)
	// 20 tx/s from one source: tx 1 is due 50ms in, but its submitter is
	// stuck behind tx 0's 300ms admission until then.
	res := g.run(0, step{Rate: 20, Sources: 1, Duration: 200 * time.Millisecond}, 1)
	close(stop)
	wg.Wait()
	if res.Offered != 4 || res.Applied != 4 || res.failures() != 0 {
		t.Fatalf("offered %d applied %d failures %d, want 4/4/0", res.Offered, res.Applied, res.failures())
	}
	d := Summarize(res.Latency)
	// Every tx was due by 150ms and none was admitted before 300ms.
	if d.N != 4 || d.P50 < (hold-150*time.Millisecond).Seconds() {
		t.Errorf("latencies %v: a held send must be charged from its due time", res.Latency)
	}
	if late := Summarize(res.Late); late.Max < float64(hold-100*time.Millisecond)/float64(time.Millisecond) {
		t.Errorf("late %v ms: the generator must report how far it ran behind", res.Late)
	}
	if len(g.track.errs) != 0 {
		t.Errorf("tracker errors: %v", g.track.errs)
	}
}

// TestFailAccounting: refusals, in-ledger failures and txs never applied
// by the drain deadline all count against the offered total; applied txs
// carry latencies and nothing else does.
func TestFailAccounting(t *testing.T) {
	f := &fakeNet{net: stellarcrypto.HashBytes([]byte("fail")),
		decide: func(k int) herder.AdmitCode {
			if k%5 == 4 {
				return herder.AdmitPoolFull
			}
			return herder.AdmitAccepted
		}}
	g := newGenerator(2, f.net, testAccounts(8), 1, 2, f.submit)
	g.drainMax = 300 * time.Millisecond
	stop := make(chan struct{})
	// Accepted tx #0 is never applied; accepted tx #1 fails in its ledger.
	wg := closer(f, g.track, 20*time.Millisecond, map[int]bool{0: true}, map[int]bool{1: true}, stop)
	res := g.run(0, step{Rate: 100, Sources: 8, Duration: 200 * time.Millisecond}, 1)
	close(stop)
	wg.Wait()
	if res.Offered != 20 {
		t.Fatalf("offered %d, want 20", res.Offered)
	}
	if res.Refused["pool_full"] != 4 || res.Failed != 1 || res.Unapplied != 1 || res.Applied != 14 {
		t.Fatalf("refused %v failed %d unapplied %d applied %d, want 4/1/1/14",
			res.Refused, res.Failed, res.Unapplied, res.Applied)
	}
	if res.failures() != 6 || len(res.Latency) != res.Applied {
		t.Fatalf("failures %d latencies %d", res.failures(), len(res.Latency))
	}
	// A refused sequence number is reused: sources advanced once per
	// accepted tx.
	advanced := 0
	for src := 0; src < 8; src++ {
		advanced += int(g.nextSeq[src] - 101)
	}
	if advanced != 16 {
		t.Errorf("sources advanced %d sequence numbers, want one per accepted tx (16)", advanced)
	}
}

// TestTrackerFlagsUnofferedAndRepeatedApplies covers the correctness
// checks on ledger results.
func TestTrackerFlagsUnofferedAndRepeatedApplies(t *testing.T) {
	tr := newTracker(2)
	h := stellarcrypto.HashBytes([]byte("a"))
	tr.offer(h, &txRec{validator: 0})
	tr.admitted(tr.recs[h], herder.AdmitAccepted)
	tr.applied(0, 2, []ledger.TxResult{{TxHash: h, Success: true}}, time.Now())
	tr.applied(1, 2, []ledger.TxResult{{TxHash: h, Success: true}}, time.Now())
	if len(tr.errs) != 0 {
		t.Fatalf("one apply per validator flagged: %v", tr.errs)
	}
	tr.applied(1, 3, []ledger.TxResult{{TxHash: h, Success: true}}, time.Now())
	tr.applied(0, 3, []ledger.TxResult{{TxHash: stellarcrypto.HashBytes([]byte("b")), Success: true}}, time.Now())
	tr.offer(h, &txRec{})
	if len(tr.errs) != 3 {
		t.Fatalf("errors %v, want a repeated apply, an unoffered apply and a repeated offer", tr.errs)
	}
}

// TestMarginsUntimed: a step's margins offer and settle payments like the
// timed window's, but only payments sent inside the window carry
// latencies, and only ledgers carrying one of them count as ledgers.
func TestMarginsUntimed(t *testing.T) {
	f := &fakeNet{net: stellarcrypto.HashBytes([]byte("margin"))}
	g := newGenerator(3, f.net, testAccounts(8), 1, 1, f.submit)
	g.drainMax = time.Second
	stop := make(chan struct{})
	wg := closer(f, g.track, 50*time.Millisecond, nil, nil, stop)
	// 40 tx/s: 8 in each 200ms margin, 8 in the 200ms window.
	res := g.run(0, step{Rate: 40, Sources: 8, Duration: 200 * time.Millisecond, Margin: 200 * time.Millisecond}, 1)
	close(stop)
	wg.Wait()
	if res.Offered != 24 || res.Applied != 24 {
		t.Fatalf("offered %d applied %d, want 24 of each", res.Offered, res.Applied)
	}
	if len(res.Latency) != 8 {
		t.Errorf("%d timed latencies, want the window's 8", len(res.Latency))
	}
	if res.End.Sub(res.Start) != 200*time.Millisecond {
		t.Errorf("window %v, want the step's duration", res.End.Sub(res.Start))
	}
	// Four 50ms ledgers span the window; the edge ones also carry margin
	// payments, and no ledger of the margins alone counts.
	if n := res.PerLedger.N; n < 4 || n > 6 {
		t.Errorf("%d ledgers counted, want the 4 to 6 that carry window payments", n)
	}
}
