package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"stellar/internal/fba"
	"stellar/internal/herder"
	"stellar/internal/ledger"
	"stellar/internal/loadgen"
	"stellar/internal/obs"
	"stellar/internal/simnet"
	"stellar/internal/stellarcrypto"
	"stellar/internal/transport"
)

// numValidators is the cluster size: the smallest majority quorum that
// tolerates a slow member.
const numValidators = 3

// ledgerInterval is the benchmark's close cadence. At stellar-node's 5 s
// default, 1,000-op ledgers cap throughput at 200 tx/s by arithmetic and
// the CPUs idle; at 1 s the trigger and close work take a visible share
// of every ledger's period.
const ledgerInterval = time.Second

// account is a funded genesis account the client side holds the key of.
type account struct {
	id  ledger.AccountID
	key stellarcrypto.KeyPair
	seq uint64 // sequence number at genesis
}

// validator is one herder.Node on its own loop and TCP manager.
type validator struct {
	idx  int
	node *herder.Node
	loop *transport.Loop
	lock sync.Locker
	env  *timedEnv // nil in untraced runs
	mgr  *transport.Manager

	// Written under the loop lock by OnLedgerClose.
	closeAt  []time.Time
	closeSeq []uint32
	closeTxs []int // successful transactions per close
}

// cluster is three validators in one process joined by authenticated
// loopback TCP: the wiring of TestThreeNodeTCPQuorum and stellar-node.
type cluster struct {
	networkID stellarcrypto.Hash
	accounts  []account
	vals      []*validator
	tracer    *obs.Tracer // the validators' and the benchmark's spans (traced runs)
	onApplied func(v int, seq uint32, results []ledger.TxResult, at time.Time)
}

// genesisFor funds nAccounts keyed accounts on a network named after the
// seed. Every validator restores from the one snapshot and header, so
// their genesis hashes match.
func genesisFor(seed int64, nAccounts int) (stellarcrypto.Hash, []account, []ledger.SnapshotEntry, *ledger.Header, error) {
	networkID := stellarcrypto.HashBytes([]byte(fmt.Sprintf("paybench-%d", seed)))
	genesis, masterKP := herder.GenesisState(networkID)
	master := ledger.AccountIDFromPublicKey(masterKP.Public)
	funded, err := loadgen.Populate(genesis, master, masterKP, networkID, nAccounts, nAccounts)
	if err != nil {
		return networkID, nil, nil, nil, err
	}
	accts := make([]account, len(funded))
	for i, a := range funded {
		accts[i] = account{id: a.ID, key: a.Key, seq: genesis.Account(a.ID).SeqNum}
	}
	// One close time for every validator: a per-node clock read forks the
	// genesis header whenever set-up straddles a second boundary.
	hdr := ledger.GenesisHeader(genesis, time.Now().Unix())
	return networkID, accts, genesis.SnapshotAll(), hdr, nil
}

// shuffled returns the accounts in a seeded order, so the seed decides
// which accounts are sources and which receive.
func shuffled(accts []account, seed int64) []account {
	out := append([]account(nil), accts...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// newCluster builds and meshes the validators; it returns once every
// validator has an authenticated connection to every other. Ledgers start
// closing only at start.
func newCluster(seed int64, nAccounts int, traced bool) (*cluster, error) {
	networkID, accts, snapshot, hdr, err := genesisFor(seed, nAccounts)
	if err != nil {
		return nil, err
	}
	c := &cluster{networkID: networkID, accounts: shuffled(accts, seed)}
	if traced {
		c.tracer = newTracer()
	}
	kps := stellarcrypto.DeterministicKeyPairs(fmt.Sprintf("paybench-validator-%d", seed), numValidators)
	ids := make([]fba.NodeID, numValidators)
	for i, kp := range kps {
		ids[i] = fba.NodeIDFromPublicKey(kp.Public)
	}
	for i, kp := range kps {
		v := &validator{idx: i, loop: transport.NewLoop()}
		v.lock = v.loop.Locker()
		var env simnet.Env = v.loop
		if traced {
			v.env = newTimedEnv(v.loop, fmt.Sprintf("validator-%d", i), c.tracer.Proc(benchProc))
			env = v.env
		}
		// stellar-node's defaults (sequential apply, NumCPU verify
		// workers, 8192/64 mempool, 1,000-op ledgers) except the cadence
		// and a close-time drift wide enough for it.
		node, err := herder.New(env, herder.Config{
			Keys:              kp,
			QSet:              fba.Majority(ids...),
			NetworkID:         networkID,
			LedgerInterval:    ledgerInterval,
			MaxCloseTimeDrift: time.Hour,
			Obs:               &obs.Obs{Tracer: c.tracer},
		})
		if err != nil {
			c.close()
			return nil, err
		}
		state, err := ledger.RestoreState(snapshot, hdr)
		if err != nil {
			c.close()
			return nil, err
		}
		v.node = node
		v.loop.Run(func() {
			node.Bootstrap(state, hdr.CloseTime)
			if v.env != nil {
				v.env.node = node
				v.env.lastSeq = node.LastHeader().LedgerSeq
			}
			node.OnLedgerClose = func(h *ledger.Header, results []ledger.TxResult) {
				at := time.Now()
				ok := 0
				for _, r := range results {
					if r.Success {
						ok++
					}
				}
				v.closeAt = append(v.closeAt, at)
				v.closeSeq = append(v.closeSeq, h.LedgerSeq)
				v.closeTxs = append(v.closeTxs, ok)
				if c.onApplied != nil {
					c.onApplied(v.idx, h.LedgerSeq, results, at)
				}
			}
		})
		peers := make([]string, 0, i)
		for _, p := range c.vals {
			peers = append(peers, p.mgr.Addr())
		}
		mgr, err := transport.NewManager(v.loop, transport.Config{
			ListenAddr:  "127.0.0.1:0",
			Peers:       peers,
			Keys:        kp,
			NetworkID:   networkID,
			BackoffBase: 20 * time.Millisecond,
			BackoffMax:  time.Second,
			Obs:         node.Obs(),
			OnPeerUp: func(p simnet.Addr) {
				node.Overlay().AddPeer(p)
				node.RebroadcastLatest()
			},
			OnPeerDown: func(p simnet.Addr) { node.Overlay().RemovePeer(p) },
		})
		if err != nil {
			c.close()
			return nil, err
		}
		v.mgr = mgr
		c.vals = append(c.vals, v)
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, v := range c.vals {
		for v.mgr.NumPeers() < numValidators-1 {
			if time.Now().After(deadline) {
				c.close()
				return nil, fmt.Errorf("validator %d has %d peers after 30s", v.idx, v.mgr.NumPeers())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return c, nil
}

// start begins every validator's ledger cadence and waits for the first
// close, so the timed part starts on a running chain.
func (c *cluster) start() error {
	for _, v := range c.vals {
		v.loop.Run(v.node.Start)
	}
	deadline := time.Now().Add(30 * time.Second)
	for c.minSeq() < 2 {
		if time.Now().After(deadline) {
			return fmt.Errorf("no ledger closed within 30s of start")
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

// minSeq is the lowest last-closed ledger across the validators.
func (c *cluster) minSeq() uint32 {
	lowest := ^uint32(0)
	for _, v := range c.vals {
		v.lock.Lock()
		seq := v.node.LastHeader().LedgerSeq
		v.lock.Unlock()
		lowest = min(lowest, seq)
	}
	return lowest
}

// close stops every loop and manager and waits for the managers'
// goroutines; timers still armed fire into closed loops and do nothing.
func (c *cluster) close() {
	for _, v := range c.vals {
		v.loop.Close()
	}
	for _, v := range c.vals {
		if v.mgr != nil {
			v.mgr.Close()
		}
	}
}

// checkHeaders verifies that every validator holds byte-identical header
// hashes for every ledger they all closed. It runs after close.
func (c *cluster) checkHeaders() (uint32, error) {
	top := ^uint32(0)
	for _, v := range c.vals {
		top = min(top, v.node.LastHeader().LedgerSeq)
	}
	for seq := uint32(1); seq <= top; seq++ {
		want, ok := c.vals[0].node.HeaderHash(seq)
		if !ok {
			return top, fmt.Errorf("validator 0 has no header for ledger %d", seq)
		}
		for _, v := range c.vals[1:] {
			if got, ok := v.node.HeaderHash(seq); !ok || got != want {
				return top, fmt.Errorf("ledger %d: validator %d header %s, validator 0 %s",
					seq, v.idx, got.Hex(), want.Hex())
			}
		}
	}
	return top, nil
}
