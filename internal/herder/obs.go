package herder

import (
	"strings"

	"stellar/internal/obs"
	"stellar/internal/scp"
)

// instruments are the herder's registry series, resolved once at node
// construction so hot-path recording is a mutex-guarded add with no map
// lookups. Metric names are the contract the EXPERIMENTS.md figures and
// DESIGN.md observability section refer to.
type instruments struct {
	// SCP protocol volume (§7.2).
	envEmitted  *obs.CounterVec // scp_envelopes_emitted_total{type}
	envReceived *obs.CounterVec // scp_envelopes_received_total{type}
	timeouts    *obs.CounterVec // scp_timeouts_total{kind}
	ballots     *obs.Counter    // scp_ballots_started_total
	nomRounds   *obs.Counter    // scp_nomination_rounds_total
	externals   *obs.Counter    // scp_slots_externalized_total

	// Consensus phase latencies (§7.3, Figs 9–11).
	nomination    *obs.Histogram // herder_nomination_seconds
	balloting     *obs.Histogram // herder_balloting_seconds
	ledgerUpdate  *obs.Histogram // herder_ledger_update_seconds
	closeInterval *obs.Histogram // herder_close_interval_seconds
	txPerLedger   *obs.Histogram // herder_tx_per_ledger
	ledgersClosed *obs.Counter   // herder_ledgers_closed_total
	pendingTxs    *obs.Gauge     // herder_pending_txs
	submitApplied *obs.Histogram // herder_submit_applied_seconds

	// Admission pipeline (ROADMAP item 1; DESIGN.md §13).
	admitted  *obs.CounterVec // mempool_admitted_total{outcome}
	evicted   *obs.Counter    // mempool_evicted_total
	poolSize  *obs.Gauge      // mempool_size
	poolCap   *obs.Gauge      // mempool_capacity
	poolFloor *obs.Gauge      // mempool_fee_floor

	// Cold-start network catchup (netcatchup.go; DESIGN.md §16).
	catchupState    *obs.Gauge      // catchup_state
	catchupFiles    *obs.CounterVec // catchup_files_fetched_total{kind}
	catchupBytes    *obs.Counter    // catchup_bytes_fetched_total
	catchupRetries  *obs.Counter    // catchup_chunk_retries_total
	catchupReplayed *obs.Counter    // catchup_ledgers_replayed_total
}

func newInstruments(reg *obs.Registry) *instruments {
	return &instruments{
		envEmitted: reg.CounterVec("scp_envelopes_emitted_total",
			"SCP envelopes this node broadcast, by statement type", "type"),
		envReceived: reg.CounterVec("scp_envelopes_received_total",
			"SCP envelopes received from peers, by statement type", "type"),
		timeouts: reg.CounterVec("scp_timeouts_total",
			"nomination and ballot timer expiries", "kind"),
		ballots: reg.Counter("scp_ballots_started_total",
			"ballots this node moved to (prepare votes)"),
		nomRounds: reg.Counter("scp_nomination_rounds_total",
			"nomination rounds started, including timeout escalations"),
		externals: reg.Counter("scp_slots_externalized_total",
			"slots this node decided"),
		nomination: reg.Histogram("herder_nomination_seconds",
			"nomination start to first prepare (paper §7.3)", nil),
		balloting: reg.Histogram("herder_balloting_seconds",
			"first prepare to externalize (paper §7.3)", nil),
		ledgerUpdate: reg.Histogram("herder_ledger_update_seconds",
			"wall time to apply the consensus value (ledger update, §7.3)", nil),
		closeInterval: reg.Histogram("herder_close_interval_seconds",
			"time between consecutive ledger closes (close rate, §7.3)", nil),
		txPerLedger: reg.Histogram("herder_tx_per_ledger",
			"transactions confirmed per ledger", obs.CountBuckets),
		ledgersClosed: reg.Counter("herder_ledgers_closed_total",
			"ledgers this node applied"),
		pendingTxs: reg.Gauge("herder_pending_txs",
			"transactions waiting in the pending pool"),
		submitApplied: reg.Histogram("herder_submit_applied_seconds",
			"local admission (submit or flood) to ledger apply, end to end (§7.3)", nil),
		admitted: reg.CounterVec("mempool_admitted_total",
			"admission decisions by outcome (flood_* = peer flood path)", "outcome"),
		evicted: reg.Counter("mempool_evicted_total",
			"pooled transactions displaced by fee-pressure eviction"),
		poolSize: reg.Gauge("mempool_size",
			"transactions in the bounded fee-priority pool"),
		poolCap: reg.Gauge("mempool_capacity",
			"configured mempool capacity (mempool_size/mempool_capacity is occupancy)"),
		poolFloor: reg.Gauge("mempool_fee_floor",
			"fee per operation of the cheapest pooled transaction while full (0 = not full)"),
		catchupState: reg.Gauge("catchup_state",
			"network catchup progress (0 idle, 1 discovering, 2 fetching, 3 restoring, 4 done)"),
		catchupFiles: reg.CounterVec("catchup_files_fetched_total",
			"archive files fetched and verified over the network", "kind"),
		catchupBytes: reg.Counter("catchup_bytes_fetched_total",
			"archive bytes fetched over the network"),
		catchupRetries: reg.Counter("catchup_chunk_retries_total",
			"catchup chunks re-requested after timeout or checksum mismatch"),
		catchupReplayed: reg.Counter("catchup_ledgers_replayed_total",
			"ledgers replayed from the fetched archive to reach the tip"),
	}
}

// recordClose feeds one close's figures to the registry. Timeouts and
// envelopes are not here: their counters tick as the events happen, by
// kind, so a slot that never closes still shows its timeouts.
func (ins *instruments) recordClose(cs CloseStats) {
	ins.ledgersClosed.Inc()
	ins.txPerLedger.Observe(float64(cs.Txs))
	ins.ledgerUpdate.ObserveDuration(cs.LedgerUpdate)
	ins.closeInterval.ObserveDuration(cs.CloseInterval)
	if cs.NominationMeasured {
		ins.nomination.ObserveDuration(cs.Nomination)
	}
	if cs.BallotingMeasured {
		ins.balloting.ObserveDuration(cs.Balloting)
	}
}

// stmtLabel maps a statement type to its metric label value.
func stmtLabel(t scp.StatementType) string { return strings.ToLower(t.String()) }

// timerLabel maps a timer kind to its metric label value.
func timerLabel(k scp.TimerKind) string {
	if k == scp.TimerNomination {
		return "nomination"
	}
	return "ballot"
}

// Obs returns the node's observability bundle (registry, trace recorder,
// logger). It is always non-nil.
func (n *Node) Obs() *obs.Obs { return n.obs }

// trace records a protocol event stamped with the node's virtual clock.
func (n *Node) trace(ev obs.Event) {
	ev.At = n.net.Now()
	n.obs.Trace.Record(ev)
}
