package main

import (
	"reflect"
	"runtime"
	"strings"
	"time"

	"stellar/internal/herder"
	"stellar/internal/obs"
	"stellar/internal/overlay"
	"stellar/internal/simnet"
	"stellar/internal/transport"
)

// timedEnv wraps the transport.Loop a validator is built on and times
// every timer, deferred and packet callback on its way in. Callbacks run
// under the loop's lock, so the fields below need no lock of their own;
// they are read only after the loop is closed or while holding its lock.
type timedEnv struct {
	*transport.Loop
	track  string
	node   *herder.Node
	proc   *obs.Proc
	ledger *obs.Span // the ledger in progress, parent of its callbacks

	busy    time.Duration
	lastSeq uint32
	trigSeq uint32 // ledger after which the nominating trigger already ran

	trigger   []time.Duration // the first trigger after each close: candidate selection
	closes    []time.Duration // callbacks during which a ledger closed
	packets   []time.Duration // packet callbacks that closed no ledger
	pendingAt map[uint32]int  // ledger → pool size when its nominating trigger fired
}

var _ simnet.Env = (*timedEnv)(nil)

func newTimedEnv(loop *transport.Loop, track string, proc *obs.Proc) *timedEnv {
	return &timedEnv{Loop: loop, track: track, proc: proc, ledger: proc.Span(track, "ledger"),
		pendingAt: make(map[uint32]int)}
}

// After times the timer's callback; the kind is read off the callback's
// function name once, when the timer is armed.
func (e *timedEnv) After(owner simnet.Addr, d time.Duration, fn func()) *simnet.Timer {
	kind := "timer"
	name := runtime.FuncForPC(reflect.ValueOf(fn).Pointer()).Name()
	switch {
	case strings.Contains(name, "triggerNextLedger"):
		kind = "trigger"
	case strings.Contains(name, "SetupTimer"):
		kind = "scp-timer"
	}
	return e.Loop.After(owner, d, func() { e.run(kind, fn) })
}

// Defer times deferred work (the herder defers ledger application).
func (e *timedEnv) Defer(fn func()) {
	e.Loop.Defer(func() { e.run("deferred", fn) })
}

// AddNode times every inbound packet by kind.
func (e *timedEnv) AddNode(addr simnet.Addr, h simnet.Handler) {
	e.Loop.AddNode(addr, simnet.HandlerFunc(func(from simnet.Addr, msg any, size int) {
		kind := "packet"
		if p, ok := msg.(*overlay.Packet); ok {
			kind = "packet-" + p.Kind.String()
		}
		e.run(kind, func() { h.HandleMessage(from, msg, size) })
	}))
}

// run executes one callback under a span named by what armed it, and
// files its duration. A callback during which the node's ledger advanced
// is a close, whatever armed it: its span gets a "close" child covering
// it, and the ledger's span ends with it.
func (e *timedEnv) run(kind string, fn func()) {
	if kind == "trigger" {
		if e.trigSeq == e.lastSeq {
			kind = "trigger-recheck" // the slot is still in consensus
		} else if e.node != nil {
			e.pendingAt[e.lastSeq+1] = e.node.PendingCount()
		}
	}
	sp := e.ledger.Child(kind)
	start := time.Now()
	fn()
	d := time.Since(start)
	e.busy += d
	seq := e.lastSeq
	if e.node != nil && e.node.LastHeader() != nil {
		seq = e.node.LastHeader().LedgerSeq
	}
	switch {
	case seq != e.lastSeq && e.lastSeq != 0:
		sp.CompleteChild("close", d)
		e.closes = append(e.closes, d)
	case kind == "trigger":
		e.trigSeq = e.lastSeq
		e.trigger = append(e.trigger, d)
	case strings.HasPrefix(kind, "packet"):
		e.packets = append(e.packets, d)
	}
	sp.End()
	if seq != e.lastSeq {
		if e.lastSeq != 0 {
			e.ledger.End()
			e.ledger = e.proc.Span(e.track, "ledger")
		}
		e.lastSeq = seq
	}
}

// hold records time the benchmark itself held the loop lock (admission),
// which blocks the node's callbacks exactly as they block each other.
func (e *timedEnv) hold(d time.Duration) { e.busy += d }
