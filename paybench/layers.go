package main

import (
	"time"

	"stellar/internal/obs"
)

// regTotals is one validator's registry read at an instant, every family
// summed over its labels, plus its signature cache counters.
type regTotals struct {
	sum      map[string]float64 // family → sum of samples (counters, gauges, histogram sums)
	count    map[string]float64 // histogram family → observation count
	cacheHit float64
	cacheMis float64
}

// snapshot reads every validator's registry and verification cache.
func (c *cluster) snapshot() []regTotals {
	out := make([]regTotals, len(c.vals))
	for i, v := range c.vals {
		out[i] = readRegistry(v.node.Obs().Reg)
		cs := v.node.Verifier().Cache.Stats()
		out[i].cacheHit, out[i].cacheMis = float64(cs.Hits), float64(cs.Misses)
	}
	return out
}

func readRegistry(reg *obs.Registry) regTotals {
	t := regTotals{sum: map[string]float64{}, count: map[string]float64{}}
	for _, f := range reg.Snapshot() {
		for _, s := range f.Samples {
			if f.Kind == obs.KindHistogram {
				t.sum[f.Name] += s.Sum
				t.count[f.Name] += float64(s.Count)
				continue
			}
			t.sum[f.Name] += s.Value
		}
	}
	return t
}

// delta sums after−before of a family across validators.
func delta(before, after []regTotals, name string) float64 {
	var d float64
	for i := range after {
		d += after[i].sum[name] - before[i].sum[name]
	}
	return d
}

func deltaCount(before, after []regTotals, name string) float64 {
	var d float64
	for i := range after {
		d += after[i].count[name] - before[i].count[name]
	}
	return d
}

// layerMetrics fills the per-layer figures of a traced pay or pay-hot
// run from the benchmark's own timings, the validators' registries and
// the validators' span tracer.
func (c *cluster) layerMetrics(out *outcome, steps []*stepResult, before, after []regTotals, timed time.Duration) {
	var trig, closes, packets, pending []float64
	var busy time.Duration
	for _, v := range c.vals {
		e := v.env
		trig = append(trig, millis(e.trigger)...)
		closes = append(closes, millis(e.closes)...)
		for _, d := range e.packets {
			packets = append(packets, float64(d)/float64(time.Microsecond))
		}
		for _, n := range e.pendingAt {
			pending = append(pending, float64(n))
		}
		busy += e.busy
	}
	// Selection and slow closes on validator 0: ledgers are cluster
	// events, so one validator's view counts each once.
	v0 := c.vals[0]
	var selSum, pendSum float64
	selN, slow := 0, 0
	for i, seq := range v0.closeSeq {
		if n, ok := v0.env.pendingAt[seq]; ok && n > 0 {
			selSum += float64(v0.closeTxs[i])
			pendSum += float64(n)
			selN++
		}
		if i > 0 && v0.closeAt[i].Sub(v0.closeAt[i-1]) > 2*ledgerInterval {
			slow++
		}
	}
	ts, cs, ps := Summarize(trig), Summarize(closes), Summarize(packets)
	out.set("herder.trigger_ms_p50", ts.P50, ts.N)
	out.set("herder.trigger_ms_p99", ts.P99, ts.N)
	out.set("herder.close_ms_p50", cs.P50, cs.N)
	out.set("herder.close_ms_p99", cs.P99, cs.N)
	out.set("herder.loop_busy_ratio", ratio(busy.Seconds(), timed.Seconds()*float64(len(c.vals))), len(c.vals))
	out.set("herder.slow_closes", float64(slow), len(v0.closeAt))
	out.set("overlay.handle_us_p50", ps.P50, ps.N)
	out.set("overlay.handle_us_p99", ps.P99, ps.N)
	pend := Summarize(pending)
	out.set("mempool.pending_at_trigger_p50", pend.P50, pend.N)
	out.set("mempool.selected_ratio", ratio(selSum, pendSum), selN)

	var waits, admits []float64
	refused := map[string]int{}
	applied := 0
	for _, r := range steps {
		waits = append(waits, r.AdmitWait...)
		admits = append(admits, r.AdmitTime...)
		for k, n := range r.Refused {
			refused[k] += n
		}
		applied += r.Applied
	}
	// The tail and the generator's lateness are the latency step's, whose
	// sends are due on the clock. A windowed step releases a ledger's worth
	// of sends at once, so its submitters run behind by design.
	var lat *stepResult
	for _, r := range steps {
		if r.Step.Latency {
			lat = r
		}
	}
	tail := lat.LatencySum
	out.set("gen.submit_applied_p99_s", tail.P99, tail.N)
	ws, as, ls := Summarize(waits), Summarize(admits), Summarize(lat.Late)
	out.set("herder.admit_wait_ms_p50", ws.P50, ws.N)
	out.set("herder.admit_wait_ms_p99", ws.P99, ws.N)
	out.set("herder.admit_us_p50", as.P50, as.N)
	out.set("gen.late_ms_p99", ls.P99, ls.N)
	out.set("mempool.refused_pool_full", float64(refused["pool_full"]), ws.N)
	out.set("mempool.refused_source_cap", float64(refused["source_cap"]), ws.N)
	out.set("mempool.refused_seq_conflict", float64(refused["seq_conflict"]), ws.N)

	ledgers := delta(before, after, "herder_ledgers_closed_total")
	perLedger := func(name string) float64 { return ratio(delta(before, after, name), ledgers) }
	out.set("scp.timeouts_per_ledger", perLedger("scp_timeouts_total"), int(ledgers))
	out.set("scp.nomination_rounds_per_ledger", perLedger("scp_nomination_rounds_total"), int(ledgers))
	out.set("scp.envelopes_per_ledger", perLedger("scp_envelopes_emitted_total"), int(ledgers))
	out.set("transport.bytes_out_per_ledger", perLedger("transport_bytes_out_total"), int(ledgers))
	out.set("transport.queue_sheds", delta(before, after, "transport_queue_sheds_total"), int(ledgers))
	delivered := delta(before, after, "overlay_packets_delivered_total")
	dupes := delta(before, after, "overlay_dupes_suppressed_total")
	out.set("overlay.dupe_ratio", ratio(dupes, dupes+delivered), int(dupes+delivered))
	out.set("overlay.bytes_per_tx", ratio(delta(before, after, "overlay_bytes_sent_total"), float64(applied)), applied)

	var hits, misses float64
	for i := range after {
		hits += after[i].cacheHit - before[i].cacheHit
		misses += after[i].cacheMis - before[i].cacheMis
	}
	txApplied := delta(before, after, "ledger_txs_applied_total") // every validator's applies
	out.set("verify.cache_hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	out.set("verify.misses_per_tx", ratio(misses, txApplied), int(txApplied))
	applyRuns := deltaCount(before, after, "ledger_apply_seconds")
	applySecs := delta(before, after, "ledger_apply_seconds")
	out.set("ledger.apply_ms_mean", ratio(applySecs*1e3, applyRuns), int(applyRuns))
	out.set("ledger.apply_us_per_tx", ratio(applySecs*1e6, txApplied), int(txApplied))
	out.set("ledger.parallel_tx_ratio", ratio(delta(before, after, "apply_parallel_txs_total"), txApplied), int(txApplied))

	d := c.tracer.Decompose()
	phase := func(metric, name string) {
		p := d.Phase(name)
		out.set(metric, float64(p.P50)/float64(time.Millisecond), p.Count)
	}
	phase("scp.nomination_ms_p50", obs.SpanNomination)
	phase("scp.balloting_ms_p50", obs.SpanBalloting)
	phase("ledger.sig_prepass_ms_p50", obs.SpanSigPrepass)
	phase("ledger.tx_apply_ms_p50", obs.SpanTxApply)
	phase("bucket.merge_ms_p50", obs.SpanBucketMerge)
	out.detail["phases"] = d.Phases
}
