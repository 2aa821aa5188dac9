package herder_test

import (
	"testing"
	"time"

	"stellar/internal/experiments"
	"stellar/internal/obs"
)

// registryTotal sums a family across its label values: counter values, or
// histogram observation sums.
func registryTotal(reg *obs.Registry, name string) float64 {
	var total float64
	for _, f := range reg.Snapshot() {
		if f.Name != name {
			continue
		}
		for _, s := range f.Samples {
			total += s.Value + s.Sum
		}
	}
	return total
}

// TestCloseStatsFeedRecordAndRegistry runs a lossy, jittery simulated
// network for 100+ ledgers and checks that the per-close record built
// from LastClose and the node's registry count the same closes,
// transactions and timeouts, and that per-slot instrumentation does not
// grow with the ledger count.
func TestCloseStatsFeedRecordAndRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("100+ simulated ledgers")
	}
	s, err := experiments.Build(experiments.Options{
		Validators: 4,
		Accounts:   200,
		TxRate:     5,
		LatencyMin: 20 * time.Millisecond,
		LatencyMax: 800 * time.Millisecond,
		DropRate:   0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	for i := 0; i < 160; i++ {
		s.Run(s.Opts.LedgerInterval)
		if i%5 == 0 {
			for _, n := range s.Nodes {
				n.RebroadcastLatest()
			}
		}
	}
	s.Stop()
	if err := s.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
	var allTimeouts int
	for i, n := range s.Nodes {
		closes := s.Closes[i]
		if len(closes) < 100 {
			t.Errorf("node %d closed %d ledgers, want 100+", i, len(closes))
		}
		reg := n.Obs().Reg
		if got := registryTotal(reg, "herder_ledgers_closed_total"); int(got) != len(closes) {
			t.Errorf("node %d: record has %d closes, registry %v", i, len(closes), got)
		}
		txs, timeouts := 0, 0
		for _, c := range closes {
			txs += c.Txs
			timeouts += c.NominationTimeouts + c.BallotTimeouts
		}
		if got := registryTotal(reg, "herder_tx_per_ledger"); int(got) != txs {
			t.Errorf("node %d: record has %d txs, registry %v", i, txs, got)
		}
		slots, open := n.InFlightSlots()
		if got := registryTotal(reg, "scp_timeouts_total"); int(got) != timeouts+open {
			t.Errorf("node %d: record has %d timeouts (+%d in flight), registry %v",
				i, timeouts, open, got)
		}
		allTimeouts += timeouts
		last := uint64(n.LastHeader().LedgerSeq)
		for _, slot := range slots {
			if slot < last {
				t.Errorf("node %d: stats kept for slot %d, closed before %d", i, slot, last)
			}
		}
		if len(slots) > 3 {
			t.Errorf("node %d: %d slots instrumented after %d closes: %v", i, len(slots), len(closes), slots)
		}
	}
	if allTimeouts == 0 {
		t.Error("no timeouts fired; the run does not exercise the timeout counts")
	}
}
