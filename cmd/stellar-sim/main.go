// Command stellar-sim runs a simulated Stellar network — full validators
// (SCP + ledger + overlay) on the discrete-event simulator — and prints
// per-ledger statistics, the equivalent of watching a small private
// network of stellar-core nodes close ledgers.
//
// Usage:
//
//	stellar-sim -validators 4 -accounts 10000 -rate 100 -duration 60s
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"stellar/internal/cliutil"
	"stellar/internal/experiments"
	"stellar/internal/obs"
)

func main() {
	validators := flag.Int("validators", 4, "number of validator nodes")
	accounts := flag.Int("accounts", 10_000, "synthetic accounts in the ledger")
	rate := flag.Float64("rate", 100, "offered load, transactions per second")
	duration := flag.Duration("duration", 60*time.Second, "virtual time to simulate")
	interval := flag.Duration("interval", 5*time.Second, "target ledger interval")
	dropRate := flag.Float64("drop", 0, "message drop probability [0,1)")
	seed := flag.Int64("seed", 42, "deterministic simulation seed")
	archive := flag.String("archive", "", "directory for a history archive (optional)")
	decompose := flag.Bool("decompose", false, "print the per-phase latency decomposition table")
	verbose := flag.Bool("v", false, "structured per-node logging to stderr")
	var common cliutil.CommonFlags
	common.Register(flag.CommandLine)
	flag.Parse()

	opts := experiments.Options{
		Validators:      *validators,
		Accounts:        *accounts,
		TxRate:          *rate,
		LedgerInterval:  *interval,
		DropRate:        *dropRate,
		Seed:            *seed,
		ArchiveDir:      *archive,
		VerifyWorkers:   common.VerifyWorkers,
		VerifyCacheSize: common.VerifyCache,
		ApplyWorkers:    common.ApplyWorkers,
		ApplyCheck:      common.ApplyCheck,
		Trace:           common.Tracing() || *decompose,
	}
	if *verbose {
		root := obs.NewLogger(os.Stderr, slog.LevelDebug)
		opts.Obs = func(i int) *obs.Obs {
			return &obs.Obs{Log: root.With(slog.Int("node", i))}
		}
	}
	fmt.Printf("building network: %d validators, %d accounts, %.0f tx/s, %v ledgers\n",
		*validators, *accounts, *rate, *interval)
	s, err := experiments.Build(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		os.Exit(1)
	}

	// Report progress from the first validator's perspective.
	node := s.Nodes[0]
	lastSeq := node.LastHeader().LedgerSeq

	s.Start()
	ticks := int(*duration / *interval)
	for i := 0; i < ticks; i++ {
		s.Run(*interval)
		h := node.LastHeader()
		if h.LedgerSeq == lastSeq {
			continue
		}
		lastSeq = h.LedgerSeq
		m := s.Summary(0)
		fmt.Printf("ledger %4d  t=%-8v  tx/ledger=%4.0f  nominate=%6.1fms  ballot=%6.1fms  apply=%6.2fms  pending=%d\n",
			h.LedgerSeq, s.Net.Now().Truncate(time.Millisecond),
			m.TxPerLedger.Mean,
			float64(m.Nomination.Mean.Microseconds())/1000,
			float64(m.Balloting.Mean.Microseconds())/1000,
			float64(m.LedgerUpdate.Mean.Microseconds())/1000,
			node.PendingCount())
	}
	s.Stop()

	if err := s.CheckAgreement(); err != nil {
		fmt.Fprintf(os.Stderr, "SAFETY VIOLATION: %v\n", err)
		os.Exit(1)
	}
	m := s.Summary()
	fmt.Printf("\nsummary over %d ledger-samples (all validators):\n", m.CloseInterval.N)
	fmt.Printf("  close interval: mean %.2fs  p99 %.2fs\n",
		m.CloseInterval.Mean.Seconds(), m.CloseInterval.P99.Seconds())
	fmt.Printf("  nomination:     mean %v  p99 %v\n", m.Nomination.Mean, m.Nomination.P99)
	fmt.Printf("  balloting:      mean %v  p99 %v\n", m.Balloting.Mean, m.Balloting.P99)
	fmt.Printf("  ledger update:  mean %v  p99 %v\n", m.LedgerUpdate.Mean, m.LedgerUpdate.P99)
	fmt.Printf("  tx per ledger:  mean %.1f  max %d\n", m.TxPerLedger.Mean, m.TxPerLedger.Max)
	fmt.Printf("  msgs per ledger per validator: mean %.1f\n", m.Envelopes.Mean)
	vs := node.Verifier().Cache.Stats()
	ps := node.Verifier().Pool.Stats()
	fmt.Printf("  verify cache (validator 0): hits %d  misses %d  hit rate %.1f%%  (%d workers)\n",
		vs.Hits, vs.Misses, 100*vs.HitRate(), ps.Workers)
	fmt.Printf("  agreement: all %d validators consistent at every ledger\n", len(s.Nodes))

	if *decompose {
		d := s.Tracer.Decompose()
		fmt.Printf("\nlatency decomposition (%d spans", d.Spans())
		if n := s.Tracer.Dropped(); n > 0 {
			fmt.Printf(", %d dropped at the span cap", n)
		}
		fmt.Println("):")
		_ = d.WriteTable(os.Stdout)
	}
	if common.Tracing() {
		if err := common.WriteTrace(s.Tracer); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
	}
}
