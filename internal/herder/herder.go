package herder

import (
	"bytes"
	"fmt"
	"log/slog"
	"sort"
	"time"

	"stellar/internal/bucket"
	"stellar/internal/fba"
	"stellar/internal/history"
	"stellar/internal/ledger"
	"stellar/internal/mempool"
	"stellar/internal/obs"
	"stellar/internal/overlay"
	"stellar/internal/scp"
	"stellar/internal/simnet"
	"stellar/internal/stellarcrypto"
	"stellar/internal/verify"
)

// Config parameterizes a validator node.
type Config struct {
	// Keys identifies the validator; its NodeID is the key's address.
	Keys stellarcrypto.KeyPair
	// QSet is the validator's quorum slices configuration.
	QSet fba.QuorumSet
	// NetworkID separates independent networks.
	NetworkID stellarcrypto.Hash
	// LedgerInterval is the target close cadence; Stellar runs SCP at
	// 5-second intervals (§1).
	LedgerInterval time.Duration
	// BallotTimeout overrides the SCP ballot timer policy; nil selects
	// the stellar-core-style linear default.
	BallotTimeout func(counter uint32) time.Duration
	// MaxTxSetSize caps operations per ledger (surge pricing above it).
	MaxTxSetSize int
	// MempoolMaxTxs bounds the pending transaction pool; the cheapest
	// fee-per-op resident is evicted when a better-paying transaction
	// arrives at a full pool (0 = mempool.DefaultMaxTxs).
	MempoolMaxTxs int
	// MempoolMaxPerSource caps pending transactions per source account so
	// one key cannot monopolize the pool (0 = mempool.DefaultMaxPerSource).
	MempoolMaxPerSource int
	// Archive, when set, receives headers, tx sets, and bucket
	// snapshots (§5.4). Validators typically do NOT host archives, so it
	// is optional.
	Archive *history.Archive
	// CheckpointInterval is how many ledgers pass between bucket/checkpoint
	// snapshots into the archive (headers and tx sets are archived every
	// ledger regardless, so any checkpoint can replay to tip). 0 = every
	// ledger.
	CheckpointInterval int
	// BucketSpillLevel > 0 spills bucket-list levels ≥ that index into the
	// archive's disk store instead of holding them on the heap; level and
	// list hashes are byte-identical either way. Requires Archive. 0 keeps
	// the whole list in memory.
	BucketSpillLevel int
	// Governing marks the validator as participating in upgrade
	// governance; DesiredUpgrades are the upgrades it votes for (§5.3).
	Governing       bool
	DesiredUpgrades []Upgrade
	// VerifyWorkers sizes the signature-verification worker pool shared
	// by the ledger apply prepass and bucket spill merges (0 = NumCPU,
	// 1 = sequential).
	VerifyWorkers int
	// VerifyCacheSize bounds the signature-verification LRU cache
	// (0 = verify.DefaultCacheSize).
	VerifyCacheSize int
	// ApplyWorkers > 1 schedules non-conflicting transactions across
	// that many workers during ledger apply (0 or 1 = sequential).
	// Results and hashes are byte-identical either way, so nodes in one
	// quorum may mix worker counts freely.
	ApplyWorkers int
	// ApplyCheck makes parallel apply panic when a worker writes outside
	// its transaction's declared write set (debug/test mode); off, the
	// escape is only counted in apply_rwset_violations_total.
	ApplyCheck bool
	// Multicast selects the §7.5 structured-multicast extension instead
	// of flooding; requires SetMembers on the overlay after wiring.
	Multicast bool
	// MaxCloseTimeDrift bounds how far in the future a proposed close
	// time may sit and still be fully valid (0 = 10s, stellar-core's
	// clock tolerance). Close times advance at least one second per
	// ledger, so deployments closing ledgers faster than one per second
	// — TCP integration tests, for instance — must widen this or
	// validation starts rejecting values once the schedule outruns the
	// wall clock.
	MaxCloseTimeDrift time.Duration
	// Obs supplies the node's observability bundle (metric registry,
	// protocol trace recorder, logger). nil, or a bundle with nil fields,
	// selects defaults: a private registry and trace ring, silent logs.
	Obs *obs.Obs
}

// Node is one Stellar validator: SCP consensus plus the replicated ledger
// state machine.
type Node struct {
	cfg  Config
	id   fba.NodeID
	addr simnet.Addr
	net  simnet.Env
	ov   *overlay.Overlay
	scp  *scp.Node

	state   *ledger.State
	buckets *bucket.List
	// verifier is the node's verification pipeline: one cache shared by
	// overlay envelope checks, nomination-time CheckValid, and apply, so
	// a signature verified once is free everywhere after.
	verifier *verify.Verifier
	headers  map[uint32]stellarcrypto.Hash // seq → header hash (skiplist source)
	last     *ledger.Header

	// pool is the bounded fee-priority pending set (admit.go holds the
	// admission front door the horizon submit pipeline calls).
	pool *mempool.Pool
	// admitTimes stamps each pooled tx at admission so applyLedger can
	// observe the end-to-end submit→applied latency. Entries leave with
	// their tx: applied, evicted, or pruned stale.
	admitTimes map[stellarcrypto.Hash]time.Duration

	txsets map[stellarcrypto.Hash]*ledger.TxSet
	// txsetSeen records the ledger at which each tx set was learned, for
	// age-based pruning (a set proposed for a future slot must survive
	// the close of the current one).
	txsetSeen map[stellarcrypto.Hash]uint32

	// recent serves peer catch-up (catchup.go).
	recent         map[uint32]recentLedger
	lastCatchupReq time.Duration
	// catchup is the cold-start network catchup state machine
	// (netcatchup.go); nil unless StartNetworkCatchup is running.
	catchup *netCatchup

	// decided buffers externalized values for slots we cannot apply yet
	// (missing tx set or missing predecessor ledgers).
	decided map[uint64]*StellarValue

	timers    map[timerKey]*simnet.Timer
	trigTimer *simnet.Timer
	nextSlot  uint64
	triggered map[uint64]bool

	// Per-slot instrumentation. slotStats accumulates the consensus
	// figures of in-flight slots; each close folds its slot's entry into
	// lastClose, the one value the registry (obs/ins, behind horizon's
	// /metrics and /debug endpoints) is fed from.
	obs          *obs.Obs
	ins          *instruments
	log          *slog.Logger
	slotStats    map[uint64]*slotStat
	lastClose    CloseStats
	upgradeStats map[UpgradeKind]int64

	// Causal span tracing (span.go). tr is nil when tracing is off; the
	// maps exist only alongside it.
	tr      *obs.Proc
	spans   map[uint64]*slotSpans
	txTrace map[stellarcrypto.Hash]*txTrace

	// peersHealth tracks per-validator liveness evidence from received
	// SCP envelopes (health.go, GET /debug/quorum); health holds the
	// derived quorum_* gauges.
	peersHealth map[fba.NodeID]*peerStatus
	health      *healthInstruments

	// OnLedgerClose, when set, is invoked after each ledger applies.
	OnLedgerClose func(h *ledger.Header, results []ledger.TxResult)
}

type timerKey struct {
	slot uint64
	kind scp.TimerKind
}

// CloseStats is one ledger close as this node measured it: the paper's
// three §7.3 phases (nomination, balloting, ledger update) plus the
// per-ledger counts behind Figs 8–11. applyLedger computes it once per
// close; LastClose returns the latest.
type CloseStats struct {
	Seq uint32
	// Txs is the number of transactions the ledger confirmed.
	Txs int
	// LedgerUpdate is the wall time spent applying the consensus value.
	LedgerUpdate time.Duration
	// CloseInterval is the close-time gap to the previous ledger (§7.3
	// "close rate").
	CloseInterval time.Duration
	// Participated is false when the slot closed without this node
	// running SCP for it (a value learned by catch-up); the consensus
	// figures below are then all zero.
	Participated bool
	// Nomination runs from nomination start to first prepare, Balloting
	// from first prepare to the close; each is set only when its
	// Measured flag is (a node that joined mid-slot saw no start).
	Nomination, Balloting                 time.Duration
	NominationMeasured, BallotingMeasured bool
	// NominationTimeouts and BallotTimeouts count timer expiries for the
	// slot (Fig 8).
	NominationTimeouts, BallotTimeouts int
	// Envelopes counts the SCP envelopes this node broadcast for the slot
	// (§7.2: ~6-7 logical messages per ledger).
	Envelopes int
}

type slotStat struct {
	nominateAt     time.Duration // virtual time nomination started
	firstPrepareAt time.Duration
	sawPrepare     bool
	nomTimeouts    int
	ballotTimeouts int
	emitted        int
}

// New creates a validator attached to a network environment — the
// deterministic simulator or a real transport loop; the herder's behavior
// is identical on either backend. The genesis state must be installed with
// Bootstrap or CatchUp before Start.
func New(net simnet.Env, cfg Config) (*Node, error) {
	if cfg.LedgerInterval <= 0 {
		cfg.LedgerInterval = 5 * time.Second
	}
	if cfg.MaxTxSetSize <= 0 {
		cfg.MaxTxSetSize = ledger.DefaultMaxTxSetSize
	}
	id := fba.NodeIDFromPublicKey(cfg.Keys.Public)
	ob := cfg.Obs.Normalize()
	n := &Node{
		cfg:          cfg,
		obs:          ob,
		ins:          newInstruments(ob.Reg),
		log:          obs.Component(ob.Log, "herder"),
		id:           id,
		addr:         simnet.Addr(id),
		net:          net,
		headers:      make(map[uint32]stellarcrypto.Hash),
		pool:         mempool.New(mempool.Config{MaxTxs: cfg.MempoolMaxTxs, MaxPerSource: cfg.MempoolMaxPerSource}),
		admitTimes:   make(map[stellarcrypto.Hash]time.Duration),
		txsets:       make(map[stellarcrypto.Hash]*ledger.TxSet),
		txsetSeen:    make(map[stellarcrypto.Hash]uint32),
		recent:       make(map[uint32]recentLedger),
		decided:      make(map[uint64]*StellarValue),
		timers:       make(map[timerKey]*simnet.Timer),
		triggered:    make(map[uint64]bool),
		slotStats:    make(map[uint64]*slotStat),
		upgradeStats: make(map[UpgradeKind]int64),
		peersHealth:  make(map[fba.NodeID]*peerStatus),
	}
	n.initTracer()
	n.initHealthGauges()
	n.updatePoolGauges() // publish mempool_capacity before any traffic
	n.verifier = verify.New(cfg.VerifyWorkers, cfg.VerifyCacheSize)
	n.verifier.SetObs(ob.Reg)
	n.ov = overlay.New(net, n.addr, cfg.NetworkID, 0)
	n.ov.SetObs(ob.Reg, obs.Component(ob.Log, "overlay"))
	if cfg.Multicast {
		n.ov.SetMode(overlay.ModeTree)
	}
	n.ov.OnEnvelope = n.onEnvelope
	n.ov.OnTx = n.onTx
	n.ov.OnTxSet = n.onTxSet
	n.ov.OnCatchup = n.handleCatchup
	if n.tr != nil {
		n.ov.OnTraceCtx = n.onPacketTrace
	}
	scpNode, err := scp.NewNode(id, cfg.QSet, cfg.NetworkID, (*driver)(n))
	if err != nil {
		return nil, err
	}
	n.scp = scpNode
	net.AddNode(n.addr, simnet.HandlerFunc(n.ov.HandleMessage))
	return n, nil
}

// LastClose returns the figures of the most recent ledger this node
// applied (zero before the first; a ledger replayed from an archive
// carries only Seq and Txs). An OnLedgerClose hook that keeps them builds
// the per-close record of a run.
func (n *Node) LastClose() CloseStats { return n.lastClose }

// ID returns the validator's node ID (its public key address).
func (n *Node) ID() fba.NodeID { return n.id }

// Addr returns the validator's network address.
func (n *Node) Addr() simnet.Addr { return n.addr }

// Overlay exposes the overlay endpoint (topology wiring, counters).
func (n *Node) Overlay() *overlay.Overlay { return n.ov }

// State exposes the ledger state (read-mostly; the horizon layer reads it).
func (n *Node) State() *ledger.State { return n.state }

// LastHeader returns the latest closed ledger header.
func (n *Node) LastHeader() *ledger.Header { return n.last }

// HeaderHash returns the hash of the header closed at seq, if known.
func (n *Node) HeaderHash(seq uint32) (stellarcrypto.Hash, bool) {
	h, ok := n.headers[seq]
	return h, ok
}

// SCP exposes the consensus node for analysis (quorum sets, slots).
func (n *Node) SCP() *scp.Node { return n.scp }

// Verifier exposes the node's verification pipeline (cache statistics).
func (n *Node) Verifier() *verify.Verifier { return n.verifier }

// Bootstrap installs a genesis ledger built from the given state. All
// validators of a network must bootstrap from identical genesis state.
func (n *Node) Bootstrap(genesis *ledger.State, closeTime int64) {
	n.state = genesis
	n.state.SetObs(n.obs.Reg)
	n.state.SetVerifier(n.verifier)
	n.state.SetApplyWorkers(n.cfg.ApplyWorkers)
	n.state.SetApplyCheck(n.cfg.ApplyCheck)
	n.buckets = bucket.NewList()
	n.buckets.SetPool(n.verifier.Pool)
	n.attachBucketStore()
	n.buckets.AddBatch(1, genesis.SnapshotAll())
	genesis.TakeDirtySnapshot() // genesis entries are already in the list
	hdr := ledger.GenesisHeader(genesis, closeTime)
	hdr.SnapshotHash = n.buckets.Hash()
	n.last = hdr
	n.headers[hdr.LedgerSeq] = hdr.Hash()
	n.nextSlot = uint64(hdr.LedgerSeq) + 1
}

// Start begins the ledger trigger cadence; call after Bootstrap.
func (n *Node) Start() {
	n.scheduleTrigger(n.cfg.LedgerInterval)
}

// scheduleTrigger (re)arms the ledger cadence timer. A single handle with
// cancel-replace semantics keeps exactly one trigger chain alive; it is
// re-anchored at every ledger apply, which revives the cadence after a
// crash (the simulator consumes timers that fire while a node is down).
func (n *Node) scheduleTrigger(d time.Duration) {
	if n.trigTimer != nil {
		n.trigTimer.Cancel()
	}
	n.trigTimer = n.net.After(n.addr, d, n.triggerNextLedger)
}

// SubmitTx accepts a transaction from a client: it runs the admission
// pipeline (admit.go) and floods on acceptance. Duplicates are a
// succeed-silently no-op for backward compatibility; richer callers
// (the horizon submit handler) use AdmitTx directly for per-outcome
// status codes and fee hints.
func (n *Node) SubmitTx(tx *ledger.Transaction) error {
	res := n.AdmitTx(tx)
	switch res.Code {
	case AdmitAccepted, AdmitDuplicate:
		return nil
	default:
		return res.Err
	}
}

// PendingCount reports the transaction pool size.
func (n *Node) PendingCount() int { return n.pool.Len() }

// PendingMaxSeq reports the highest pending sequence number for a source
// account, so the API layer can chain submissions past the ledger state.
func (n *Node) PendingMaxSeq(source ledger.AccountID) (uint64, bool) {
	return n.pool.MaxSeq(source)
}

// KnownTxSets reports how many transaction sets the node holds (debugging).
func (n *Node) KnownTxSets() int { return len(n.txsets) }

// onTx admits a peer-flooded transaction under the same pool policy as
// local submissions (minus re-flooding, which the overlay handles). A
// rejected flood must close the lifecycle trace the packet hook may have
// opened, or the bounded span map leaks.
func (n *Node) onTx(tx *ledger.Transaction) {
	if n.state == nil {
		return
	}
	h := tx.Hash(n.cfg.NetworkID)
	if len(tx.Operations) == 0 || tx.Fee < n.state.MinFee(tx) {
		n.ins.admitted.With("flood_invalid").Inc()
		n.traceEvictTx(h, "invalid")
		return
	}
	res := n.pool.Add(tx, h)
	n.ins.admitted.With("flood_" + res.Outcome.String()).Inc()
	if !res.Outcome.Admitted() {
		if res.Outcome != mempool.Duplicate {
			n.traceEvictTx(h, res.Outcome.String())
		}
		return
	}
	n.admitTimes[h] = n.net.Now()
	n.noteEvicted(res.Evicted)
	n.updatePoolGauges()
}

// noteEvicted records fee-pressure evictions: counts them and closes the
// victims' lifecycle traces.
func (n *Node) noteEvicted(victims []mempool.EvictedTx) {
	for _, v := range victims {
		n.ins.evicted.Inc()
		n.traceEvictTx(v.Hash, "fee-pressure")
		delete(n.admitTimes, v.Hash)
	}
}

// updatePoolGauges refreshes the mempool gauges after pool mutations.
func (n *Node) updatePoolGauges() {
	n.ins.pendingTxs.Set(float64(n.pool.Len()))
	n.ins.poolSize.Set(float64(n.pool.Len()))
	n.ins.poolCap.Set(float64(n.pool.Cap()))
	if fee, ops, ok := n.pool.FloorRate(); ok && n.pool.Full() {
		n.ins.poolFloor.Set(float64(fee) / float64(ops))
	} else {
		n.ins.poolFloor.Set(0)
	}
}

func (n *Node) onTxSet(ts *ledger.TxSet) {
	h := ts.Hash(n.cfg.NetworkID)
	if n.last != nil {
		n.txsetSeen[h] = n.last.LedgerSeq
	}
	if _, dup := n.txsets[h]; !dup {
		n.txsets[h] = ts
		// A value referencing this set may have been merely MaybeValid;
		// let nomination re-echo it now that we can judge it (§5.3).
		if n.last != nil {
			n.scp.RetryEcho(uint64(n.last.LedgerSeq) + 1)
		}
	}
	// A buffered decision may now be applicable.
	n.tryApplyDecided()
}

func (n *Node) onEnvelope(env *scp.Envelope) {
	if n.state == nil {
		return
	}
	n.ins.envReceived.With(stmtLabel(env.Statement.Type)).Inc()
	// Health evidence must be taken from every envelope — a peer stuck
	// replaying old slots is exactly what /debug/quorum reports — so this
	// runs before the staleness cut below.
	n.noteEnvelope(env)
	// Ignore slots already closed; stale envelopes cannot help.
	if env.Slot <= uint64(n.last.LedgerSeq) {
		return
	}
	n.trace(obs.Event{Slot: env.Slot, Kind: obs.EvEnvelopeRecv,
		Peer: string(env.Node), Detail: stmtLabel(env.Statement.Type)})
	_ = n.scp.Receive(env)
}

// triggerNextLedger builds a transaction candidate set and starts
// nomination for the next slot (§5.3).
func (n *Node) triggerNextLedger() {
	if n.state == nil {
		return
	}
	slot := uint64(n.last.LedgerSeq) + 1
	if n.triggered[slot] {
		// Consensus for this slot is still running; check back shortly.
		n.scheduleTrigger(n.cfg.LedgerInterval / 5)
		return
	}
	n.triggered[slot] = true

	// Build the candidate transaction set from the pending pool.
	closeTime := n.proposedCloseTime()
	var candidates []*ledger.Transaction
	n.pool.Each(func(_ stellarcrypto.Hash, tx *ledger.Transaction) {
		if err := n.state.CheckValid(tx, n.cfg.NetworkID, closeTime); err == nil {
			candidates = append(candidates, tx)
		}
	})
	// The pool is a map; canonicalize the order so the proposed set (and
	// surge-pricing tie-breaks) never depend on map iteration. Seeded
	// simulations must replay bit-identically.
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].Source != candidates[j].Source {
			return candidates[i].Source < candidates[j].Source
		}
		return candidates[i].SeqNum < candidates[j].SeqNum
	})
	candidates = ledger.SurgePrice(candidates, n.cfg.MaxTxSetSize)
	ts := &ledger.TxSet{PrevLedgerHash: n.last.Hash(), Txs: candidates}
	tsHash := ts.Hash(n.cfg.NetworkID)
	n.txsets[tsHash] = ts
	n.txsetSeen[tsHash] = n.last.LedgerSeq
	// Open the slot's span tree before the proposal floods so the tx-set
	// broadcast can carry the nomination span's context.
	n.traceTriggerSlot(slot, candidates)
	n.ov.BroadcastTxSetCtx(ts, n.slotCtx(slot))

	sv := &StellarValue{TxSetHash: tsHash, CloseTime: closeTime}
	if n.cfg.Governing {
		sv.Upgrades = append(sv.Upgrades, n.cfg.DesiredUpgrades...)
	}
	stat := n.stat(slot)
	stat.nominateAt = n.net.Now()
	n.trace(obs.Event{Slot: slot, Kind: obs.EvNominationStart,
		Detail: fmt.Sprintf("txs=%d", len(candidates))})
	n.log.Debug("trigger ledger", "slot", slot, "txs", len(candidates), "close_time", closeTime)
	n.scp.Nominate(slot, sv.Encode())
	// Schedule the next cadence tick regardless; if consensus is slow the
	// tick re-checks.
	n.scheduleTrigger(n.cfg.LedgerInterval)
}

// proposedCloseTime picks a close time strictly after the last ledger's.
func (n *Node) proposedCloseTime() int64 {
	now := int64(n.net.Now() / time.Second)
	if now <= n.last.CloseTime {
		return n.last.CloseTime + 1
	}
	return now
}

func (n *Node) stat(slot uint64) *slotStat {
	s, ok := n.slotStats[slot]
	if !ok {
		s = &slotStat{}
		n.slotStats[slot] = s
	}
	return s
}

// onExternalized handles a slot decision from SCP.
func (n *Node) onExternalized(slot uint64, raw scp.Value) {
	sv, err := DecodeValue(raw)
	if err != nil {
		// A quorum decided an undecodable value: unrecoverable.
		panic(fmt.Sprintf("herder: externalized garbage for slot %d: %v", slot, err))
	}
	n.decided[slot] = sv
	n.ins.externals.Inc()
	n.traceExternalized(slot)
	n.trace(obs.Event{Slot: slot, Kind: obs.EvExternalize})
	n.log.Debug("externalized", "slot", slot, "close_time", sv.CloseTime)
	// Defer application so it runs outside SCP's call stack.
	n.net.Defer(n.tryApplyDecided)
}

// tryApplyDecided applies buffered decisions in order while possible;
// when blocked on missing predecessors or tx sets it requests peer
// catch-up (catchup.go).
func (n *Node) tryApplyDecided() {
	for {
		if n.state == nil {
			return
		}
		slot := uint64(n.last.LedgerSeq) + 1
		sv, ok := n.decided[slot]
		if !ok {
			if len(n.decided) > 0 {
				n.maybeRequestCatchup()
			}
			return
		}
		ts, ok := n.txsets[sv.TxSetHash]
		if !ok {
			n.maybeRequestCatchup()
			return // wait for the tx set flood or catch-up to arrive
		}
		n.applyLedger(slot, sv, ts)
	}
}

// applyLedger closes one ledger: applies the transaction set and upgrades,
// updates the bucket list, chains the header, and archives (§5.1–§5.4).
func (n *Node) applyLedger(slot uint64, sv *StellarValue, ts *ledger.TxSet) {
	applyStart := time.Now() // real time: ledger update is real compute
	applySpan := n.traceApplyStart(slot)

	env := &ledger.ApplyEnv{LedgerSeq: uint32(slot), CloseTime: sv.CloseTime}
	results, resultsHash := n.state.ApplyTxSet(ts, n.cfg.NetworkID, env)

	// Apply upgrades (§5.3).
	for _, u := range sv.Upgrades {
		n.applyUpgrade(u)
	}

	// Update the bucket list with the entries this ledger changed.
	mergeStart := time.Now()
	changed := n.state.TakeDirtySnapshot()
	n.buckets.AddBatch(uint32(slot), changed)
	applySpan.CompleteChild(obs.SpanBucketMerge, time.Since(mergeStart))

	hdr := ledger.NextHeader(n.last, n.last.Hash())
	hdr.SCPValueHash = stellarcrypto.HashBytes(sv.Encode())
	hdr.TxSetHash = sv.TxSetHash
	hdr.ResultsHash = resultsHash
	hdr.SnapshotHash = n.buckets.Hash()
	hdr.CloseTime = sv.CloseTime
	hdr.BaseFee = n.state.BaseFee
	hdr.BaseReserve = n.state.BaseReserve
	hdr.MaxTxSetSize = n.state.MaxTxSetSize
	hdr.ProtocolVersion = n.state.ProtocolVersion
	hdr.FeePool = n.state.FeePool

	// The close's figures, computed once: the registry is fed from cs
	// and LastClose serves it.
	applyDur := time.Since(applyStart)
	cs := CloseStats{
		Seq:           hdr.LedgerSeq,
		Txs:           len(ts.Txs),
		LedgerUpdate:  applyDur,
		CloseInterval: time.Duration(hdr.CloseTime-n.last.CloseTime) * time.Second,
	}
	if st, ok := n.slotStats[slot]; ok {
		cs.Participated = true
		if st.sawPrepare {
			cs.BallotingMeasured = true
			cs.Balloting = n.net.Now() - st.firstPrepareAt
			if st.nominateAt > 0 {
				cs.NominationMeasured = true
				cs.Nomination = st.firstPrepareAt - st.nominateAt
			}
		}
		cs.NominationTimeouts = st.nomTimeouts
		cs.BallotTimeouts = st.ballotTimeouts
		cs.Envelopes = st.emitted
		delete(n.slotStats, slot)
	}
	n.lastClose = cs
	n.ins.recordClose(cs)

	// End-to-end submit→applied latency for txs this node admitted itself
	// (the SLO engine's p99 source; floods and local submits both stamp).
	if len(n.admitTimes) > 0 {
		nowV := n.net.Now()
		for _, tx := range ts.Txs {
			th := tx.Hash(n.cfg.NetworkID)
			if at, ok := n.admitTimes[th]; ok {
				n.ins.submitApplied.ObserveDuration(nowV - at)
				delete(n.admitTimes, th)
			}
		}
	}
	n.traceTxsApplied(slot, applySpan, ts, applyDur)
	n.trace(obs.Event{Slot: slot, Kind: obs.EvLedgerApplied,
		Detail: fmt.Sprintf("txs=%d apply=%s", len(ts.Txs), applyDur)})
	n.log.Info("ledger closed", "seq", hdr.LedgerSeq, "txs", len(ts.Txs),
		"apply", applyDur, "close_time", hdr.CloseTime)

	n.last = hdr
	n.headers[hdr.LedgerSeq] = hdr.Hash()
	delete(n.decided, slot)
	delete(n.triggered, slot)

	// Keep a window of closed ledgers for lagging peers (catchup.go).
	n.recent[hdr.LedgerSeq] = recentLedger{value: sv.Encode(), txset: ts}
	if hdr.LedgerSeq > recentWindow {
		delete(n.recent, hdr.LedgerSeq-recentWindow)
	}

	// Drop applied/stale transactions from the pool (canonical hash order
	// inside PruneStale keeps the trace/event sequence deterministic).
	for _, v := range n.pool.PruneStale(func(tx *ledger.Transaction) bool {
		acct := n.state.Account(tx.Source)
		return acct == nil || tx.SeqNum <= acct.SeqNum
	}) {
		n.traceEvictTx(v.Hash, "stale")
		delete(n.admitTimes, v.Hash)
	}
	n.updatePoolGauges()

	// Prune tx sets by age: drop sets not seen within the last few
	// ledgers, always keeping any referenced by a buffered decision.
	// (Pruning must not discard next-slot proposals that arrived before
	// this close: the overlay dedup would suppress their re-floods and
	// the referencing values could never become votable.)
	needed := make(map[stellarcrypto.Hash]bool, len(n.decided))
	for _, dv := range n.decided {
		needed[dv.TxSetHash] = true
	}
	for h2 := range n.txsets {
		if needed[h2] {
			continue
		}
		if seen, ok := n.txsetSeen[h2]; !ok || seen+3 < hdr.LedgerSeq {
			delete(n.txsets, h2)
			delete(n.txsetSeen, h2)
		}
	}

	// Archive (§5.4).
	if n.cfg.Archive != nil {
		archStart := time.Now()
		n.archiveLedger(hdr, ts)
		applySpan.CompleteChild(obs.SpanArchive, time.Since(archStart))
	}
	n.traceApplyEnd(slot, applySpan)

	// Refresh quorum-health gauges at the close boundary (health.go).
	n.updateQuorumGauges()

	// Garbage-collect consensus state for closed slots.
	n.scp.PurgeBelow(slot)

	// Re-anchor the ledger cadence on this close; this also revives the
	// trigger chain after a crash killed its pending timer.
	n.scheduleTrigger(n.cfg.LedgerInterval)

	if n.OnLedgerClose != nil {
		n.OnLedgerClose(hdr, results)
	}
}

func (n *Node) applyUpgrade(u Upgrade) {
	if ClassifyUpgrade(u, n.cfg.DesiredUpgrades) == UpgradeInvalid {
		return // consensus should never externalize these; be defensive
	}
	n.upgradeStats[u.Kind] = u.Value
	switch u.Kind {
	case UpgradeBaseFee:
		n.state.BaseFee = u.Value
	case UpgradeBaseReserve:
		n.state.BaseReserve = u.Value
	case UpgradeMaxTxSetSize:
		n.state.MaxTxSetSize = int(u.Value)
	case UpgradeProtocolVersion:
		n.state.ProtocolVersion = uint32(u.Value)
	}
}

// attachBucketStore points the bucket list's spilled levels at the
// archive's content-addressed store when the node is configured durable.
func (n *Node) attachBucketStore() {
	if n.cfg.Archive == nil || n.cfg.BucketSpillLevel <= 0 {
		return
	}
	if err := n.buckets.SetStore(n.cfg.Archive.BucketStore(), n.cfg.BucketSpillLevel); err != nil {
		panic(fmt.Sprintf("herder: attach bucket store: %v", err))
	}
}

// checkpointInterval normalizes the configured cadence.
func (n *Node) checkpointInterval() uint32 {
	if n.cfg.CheckpointInterval > 0 {
		return uint32(n.cfg.CheckpointInterval)
	}
	return 1
}

func (n *Node) archiveLedger(hdr *ledger.Header, ts *ledger.TxSet) {
	a := n.cfg.Archive
	if err := a.PutHeader(hdr); err != nil {
		return
	}
	if err := a.PutTxSet(hdr.LedgerSeq, ts); err != nil {
		return
	}
	if hdr.LedgerSeq%n.checkpointInterval() != 0 {
		return
	}
	hashes := n.buckets.BucketHashes()
	for i, h := range hashes {
		if h == bucket.EmptyBucket().Hash() {
			continue
		}
		b, err := n.buckets.Bucket(i/2, i%2 == 1)
		if err == nil {
			_ = a.PutBucket(b)
		}
	}
	_ = a.PutCheckpoint(&history.Checkpoint{
		LedgerSeq:    hdr.LedgerSeq,
		HeaderHash:   hdr.Hash(),
		BucketHashes: hashes,
	})
}

// CatchUp bootstraps or fast-forwards the node from an archive's latest
// checkpoint (§5.4: "The archive lets new nodes bootstrap themselves").
func (n *Node) CatchUp(a *history.Archive) error {
	cp, err := a.LatestCheckpoint()
	if err != nil {
		return fmt.Errorf("herder: catch up: %w", err)
	}
	if n.last != nil && uint32(cp.LedgerSeq) <= n.last.LedgerSeq {
		return nil // already current
	}
	hdr, err := a.GetHeader(cp.LedgerSeq)
	if err != nil {
		return err
	}
	buckets, err := a.RestoreBucketList(cp)
	if err != nil {
		return err
	}
	if buckets.Hash() != hdr.SnapshotHash {
		return fmt.Errorf("herder: archive snapshot hash mismatch")
	}
	state, err := ledger.RestoreState(buckets.AllLive(), hdr)
	if err != nil {
		return err
	}
	n.state = state
	n.state.SetObs(n.obs.Reg)
	n.state.SetVerifier(n.verifier)
	n.state.SetApplyWorkers(n.cfg.ApplyWorkers)
	n.state.SetApplyCheck(n.cfg.ApplyCheck)
	n.buckets = buckets
	n.buckets.SetPool(n.verifier.Pool)
	n.attachBucketStore()
	n.last = hdr
	n.headers[hdr.LedgerSeq] = hdr.Hash()
	n.nextSlot = uint64(hdr.LedgerSeq) + 1
	// Any buffered later decisions may now apply.
	n.tryApplyDecided()
	return nil
}

// RebroadcastLatest re-floods the node's newest SCP envelopes for live
// slots — the anti-entropy that lets crashed peers catch up (the §6
// lesson: keep helping peers finish previous ledgers).
func (n *Node) RebroadcastLatest() {
	if n.state == nil {
		return
	}
	for _, idx := range n.scp.SlotIndices() {
		for _, env := range n.scp.Slot(idx).LatestEnvelopes() {
			n.ov.BroadcastEnvelope(env)
		}
	}
	// Also re-flood known tx sets for open slots so laggards can apply.
	// Iterate in sorted hash order: send order feeds the simulated
	// network's event and RNG sequence, and seeded runs must replay
	// bit-identically.
	hashes := make([]stellarcrypto.Hash, 0, len(n.txsets))
	for h := range n.txsets {
		hashes = append(hashes, h)
	}
	sort.Slice(hashes, func(i, j int) bool {
		return bytes.Compare(hashes[i][:], hashes[j][:]) < 0
	})
	for _, h := range hashes {
		n.ov.BroadcastTxSet(n.txsets[h])
	}
}

// UpgradeValue reports the last externalized value for an upgrade kind (0
// if never upgraded), for governance tests.
func (n *Node) UpgradeValue(k UpgradeKind) int64 { return n.upgradeStats[k] }
