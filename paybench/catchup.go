package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"stellar/internal/experiments"
	"stellar/internal/fba"
	"stellar/internal/herder"
	"stellar/internal/history"
	"stellar/internal/ledger"
	"stellar/internal/obs"
	"stellar/internal/simnet"
	"stellar/internal/stellarcrypto"
)

// Catchup archive shape: the archiving validator cuts its one checkpoint
// at ledger catchupCheckpoint, then the network closes catchupLedgers
// loaded ledgers of catchupTxLedger payments each. The load generator
// offers catchupRate payments per simulated second; simulated ledgers
// close about every 1.2 s, so every loaded ledger is full. A restore
// reads the checkpoint's buckets and replays every loaded ledger.
const (
	catchupCheckpoint  = 32
	catchupLedgers     = 24
	catchupTxLedger    = 900
	catchupRate        = 900
	catchupMinRestores = 3
)

// runCatchup times a fresh validator restoring from a history archive to
// its tip: ledger apply, bucket merge and history reads with a cold
// signature cache, and no consensus, overlay or mempool work.
func runCatchup(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	dir, err := os.MkdirTemp(cfg.WorkDir, "catchup-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	archDir := filepath.Join(dir, "archive")
	t0 := time.Now()
	src, err := buildArchive(cfg, archDir)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setup := time.Since(t0).Seconds()
	out.set("setup_s", setup, 1)
	tip := src.tip
	arch, err := history.Open(archDir)
	if err != nil {
		return nil, err
	}
	txs, err := archivedTxs(arch, catchupCheckpoint+1, tip.LedgerSeq)
	if err != nil {
		return nil, err
	}

	var tracer *obs.Tracer
	if cfg.Traced {
		tracer = newTracer()
	}
	proc := tracer.Proc(benchProc)
	var restores, perLedger, tput []float64
	var reads, replays []time.Duration
	var hits, misses, applySecs, applyRuns, applied, heapMiB, gcCPU, allCPU float64
	deadline := time.Now().Add(cfg.Measure)
	for len(restores) < catchupMinRestores || time.Now().Before(deadline) {
		node, err := freshNode(src)
		if err != nil {
			return nil, err
		}
		// A fresh handle per restore: the archive's bucket store caches
		// what it reads.
		arch, err := history.Open(archDir)
		if err != nil {
			return nil, err
		}
		gcc := startGCClock()
		start := time.Now()
		var replayed int
		if cfg.Traced {
			replayed, err = tracedRestore(node, arch, proc, &reads, &replays)
		} else {
			replayed, err = node.RestoreFromArchive(arch)
		}
		d := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("restore: %w", err)
		}
		gc, all := gcc.since()
		gcCPU, allCPU = gcCPU+gc, allCPU+all
		heapMiB = max(heapMiB, liveHeapMiB()) // the restored node is still live
		got := node.LastHeader()
		if got.LedgerSeq != tip.LedgerSeq || got.Hash() != tip.Hash() {
			out.errs = append(out.errs, fmt.Sprintf("restore %d: tip %d %s, archiving validator %d %s",
				len(restores), got.LedgerSeq, got.Hash().Hex(), tip.LedgerSeq, tip.Hash().Hex()))
		}
		out.attempted++
		if replayed != int(tip.LedgerSeq)-catchupCheckpoint {
			out.failed++
			out.errs = append(out.errs, fmt.Sprintf("restore %d replayed %d ledgers, want %d",
				len(restores), replayed, int(tip.LedgerSeq)-catchupCheckpoint))
		}
		restores = append(restores, d.Seconds())
		perLedger = append(perLedger, d.Seconds()/float64(replayed))
		tput = append(tput, float64(txs)/d.Seconds())
		cs := node.Verifier().Cache.Stats()
		hits += float64(cs.Hits)
		misses += float64(cs.Misses)
		reg := readRegistry(node.Obs().Reg)
		applySecs += reg.sum["ledger_apply_seconds"]
		applyRuns += reg.count["ledger_apply_seconds"]
		applied += reg.sum["ledger_txs_applied_total"]
	}
	rs := Summarize(restores)
	out.set("latency_p50_s", rs.P50, rs.N)
	pl, tp := Summarize(perLedger), Summarize(tput)
	out.set("ledger_s", pl.P50, pl.N)
	out.set("throughput_tx_per_s", tp.P50, tp.N)
	out.set("heap_peak_mib", heapMiB, 1)
	out.detail["catchup_s"] = rs
	out.detail["restores_s"] = restores
	out.detail["archive"] = map[string]any{
		"checkpoint": catchupCheckpoint, "tip": tip.LedgerSeq, "txs": txs, "max_tx_per_ledger": catchupTxLedger,
		"sim_seed": simSeed(cfg.Seed),
	}

	if cfg.Traced {
		rp := Summarize(millis(replays))
		out.set("herder.replay_ms_p50", rp.P50, rp.N)
		rd := Summarize(millis(reads))
		out.set("history.read_ms_per_ledger", rd.P50, rd.N)
		out.set("history.write_ms_p50", float64(src.write.P50)/float64(time.Millisecond), src.write.Count)
		out.set("verify.cache_hit_ratio", ratio(hits, hits+misses), int(hits+misses))
		out.set("verify.misses_per_tx", ratio(misses, applied), int(applied))
		out.set("ledger.apply_ms_mean", ratio(applySecs*1e3, applyRuns), int(applyRuns))
		out.set("ledger.apply_us_per_tx", ratio(applySecs*1e6, applied), int(applied))
		out.set("runtime.gc_cpu_ratio", ratio(gcCPU, allCPU), len(restores))
		exportSpans(tracer, cfg, out)
	}
	return out, nil
}

// simSeed derives the catchup network's simulator seed from the workload
// seed (the simulator treats 0 as "default", so it is kept away from 0).
func simSeed(seed int64) int64 { return seed*7919 + 1 }

// archived is what a restore needs to know about the network that wrote
// the archive; the simulated network itself is dropped after set-up.
type archived struct {
	networkID stellarcrypto.Hash
	ids       []fba.NodeID
	tip       *ledger.Header // the archiving validator's last close
	write     obs.PhaseStat  // its archive writes (traced runs)
}

// buildArchive runs a seeded simulated 3-validator network whose first
// validator archives: one checkpoint on an idle chain, then loaded
// ledgers on top of it. Ledgers are capped at catchupTxLedger payments
// and offered more, so every loaded ledger is full whatever the seed.
func buildArchive(cfg runConfig, dir string) (*archived, error) {
	sim, err := experiments.Build(experiments.Options{
		Validators:         numValidators,
		Accounts:           cfg.Accounts,
		TxRate:             cfg.CatchupRate,
		MaxTxSetSize:       catchupTxLedger,
		LedgerInterval:     ledgerInterval,
		Seed:               simSeed(cfg.Seed),
		ArchiveDir:         dir,
		CheckpointInterval: catchupCheckpoint,
		Trace:              cfg.Traced,
	})
	if err != nil {
		return nil, err
	}
	for _, n := range sim.Nodes {
		n.Start()
	}
	runTo := func(seq uint32) error {
		for limit := 0; sim.Nodes[0].LastHeader().LedgerSeq < seq; limit++ {
			if limit > 4*int(seq) {
				return fmt.Errorf("simulated network stuck at ledger %d, want %d",
					sim.Nodes[0].LastHeader().LedgerSeq, seq)
			}
			sim.Run(ledgerInterval / 4)
		}
		return nil
	}
	if err := runTo(catchupCheckpoint); err != nil {
		return nil, err
	}
	sim.Gen.Start()
	if err := runTo(catchupCheckpoint + uint32(cfg.CatchupLedgers)); err != nil {
		return nil, err
	}
	sim.Stop()
	if err := sim.CheckAgreement(); err != nil {
		return nil, err
	}
	a := &archived{networkID: sim.NetworkID, tip: sim.Nodes[0].LastHeader(),
		write: sim.Tracer.Decompose().Phase(obs.SpanArchive)}
	for _, n := range sim.Nodes {
		a.ids = append(a.ids, n.ID())
	}
	return a, nil
}

// freshNode is a validator that has never seen the network: empty
// signature cache, no state, on a network it will never use.
func freshNode(a *archived) (*herder.Node, error) {
	return herder.New(simnet.New(1), herder.Config{
		Keys:           stellarcrypto.KeyPairFromString("paybench-restorer"),
		QSet:           fba.Majority(a.ids...),
		NetworkID:      a.networkID,
		LedgerInterval: ledgerInterval,
	})
}

// tracedRestore is herder.Node.RestoreFromArchive (internal/herder/
// replay.go) spelled out, so each ledger's history reads and replay can be
// timed from outside. It mirrors that function call for call and must
// change with it: the traced run's end-to-end catchup figures come from
// this copy, not from RestoreFromArchive itself.
func tracedRestore(node *herder.Node, a *history.Archive, proc *obs.Proc, reads, replays *[]time.Duration) (int, error) {
	root := proc.Span("restore", "restore")
	defer root.End()
	cp := root.Child("checkpoint")
	if err := node.CatchUp(a); err != nil {
		return 0, err
	}
	cp.End()
	replayed := 0
	for {
		seq := node.LastHeader().LedgerSeq + 1
		sp := root.Child("ledger")
		read := sp.Child("history-read")
		t0 := time.Now()
		hdr, err := a.GetHeader(seq)
		if errors.Is(err, fs.ErrNotExist) {
			read.End()
			sp.Arg("end_of_archive", "true") // the probe that stops the loop
			sp.End()
			return replayed, nil
		}
		if err != nil {
			return replayed, err
		}
		ts, err := a.GetTxSet(seq)
		if err != nil {
			return replayed, err
		}
		t1 := time.Now()
		read.End()
		replay := sp.Child("replay")
		if err := node.ReplayLedger(hdr, ts); err != nil {
			return replayed, err
		}
		t2 := time.Now()
		replay.End()
		sp.End()
		*reads = append(*reads, t1.Sub(t0))
		*replays = append(*replays, t2.Sub(t1))
		replayed++
	}
}

// archivedTxs counts the transactions archived for ledgers [from, to].
func archivedTxs(a *history.Archive, from, to uint32) (int, error) {
	n := 0
	for seq := from; seq <= to; seq++ {
		ts, err := a.GetTxSet(seq)
		if err != nil {
			return 0, err
		}
		n += len(ts.Txs)
	}
	return n, nil
}
