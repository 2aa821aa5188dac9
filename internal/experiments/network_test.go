package experiments

import (
	"testing"
	"time"
)

func smallOpts() Options {
	return Options{
		Validators:     4,
		Accounts:       200,
		ActiveAccounts: 100,
		TxRate:         20,
		LedgerInterval: 5 * time.Second,
	}
}

func TestNetworkClosesLedgers(t *testing.T) {
	s, err := Build(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	s.Run(60 * time.Second)
	for i, seq := range s.LedgerSeqs() {
		if seq < 8 {
			t.Fatalf("node %d closed only %d ledgers in 60s", i, seq)
		}
	}
	if err := s.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
}

func TestNetworkAppliesTransactions(t *testing.T) {
	s, err := Build(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	s.Run(60 * time.Second)
	m := s.Summary()
	if m.TxPerLedger.N == 0 {
		t.Fatal("no ledgers measured")
	}
	// 20 tx/s over 5 s ledgers ≈ 100 tx per ledger once warmed up.
	if m.TxPerLedger.Max < 50 {
		t.Fatalf("max tx/ledger = %d, expected ≥ 50", m.TxPerLedger.Max)
	}
	// The generator's payments actually moved money.
	bal := s.Nodes[0].State().BalanceOf(s.Accounts[0].ID, nativeAsset())
	if bal == 10_000*one() {
		t.Fatal("account 0 balance unchanged; no payments applied")
	}
}

func TestNetworkCloseRate(t *testing.T) {
	s, err := Build(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	s.Run(120 * time.Second)
	mean := s.Summary().CloseInterval.Mean
	// §7.3: close times hover just above the 5-second target.
	if mean < 4*time.Second || mean > 7*time.Second {
		t.Fatalf("mean close interval %v, want ≈5s", mean)
	}
}

func TestNetworkStateHashesAgree(t *testing.T) {
	s, err := Build(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	s.Run(45 * time.Second)
	// All nodes at the same ledger must have identical snapshot hashes.
	minSeq := s.LedgerSeqs()[0]
	for _, seq := range s.LedgerSeqs() {
		if seq < minSeq {
			minSeq = seq
		}
	}
	if minSeq < 3 {
		t.Fatalf("nodes too far behind: %v", s.LedgerSeqs())
	}
	var ref [32]byte
	for i, n := range s.Nodes {
		h, ok := n.HeaderHash(minSeq)
		if !ok {
			t.Fatalf("node %d missing header %d", i, minSeq)
		}
		if i == 0 {
			ref = h
		} else if ref != h {
			t.Fatalf("node %d header hash differs at %d", i, minSeq)
		}
	}
}

func TestSparseTopologyStillConverges(t *testing.T) {
	opts := smallOpts()
	opts.Validators = 6
	opts.SparseTopology = 2 // ring
	s, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	s.Run(60 * time.Second)
	for i, seq := range s.LedgerSeqs() {
		if seq < 5 {
			t.Fatalf("ring node %d closed only %d ledgers", i, seq)
		}
	}
	if err := s.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
}

func TestMessageLossToleratedWithAntiEntropy(t *testing.T) {
	opts := smallOpts()
	opts.DropRate = 0.05
	s, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	// Periodic anti-entropy, as the overlay layer provides in production.
	for i := 0; i < 30; i++ {
		s.Run(4 * time.Second)
		for _, n := range s.Nodes {
			n.RebroadcastLatest()
		}
	}
	for i, seq := range s.LedgerSeqs() {
		if seq < 5 {
			t.Fatalf("node %d closed only %d ledgers under 5%% loss", i, seq)
		}
	}
	if err := s.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
}
