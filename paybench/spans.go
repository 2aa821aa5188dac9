package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"

	"stellar/internal/obs"
)

// A traced run records the benchmark's own spans in an obs.Tracer under a
// process named benchProc: a root span per transaction with its admission
// children, per validator one span per loop callback under a per-ledger
// span, and the catchup restores. In pay and pay-hot this is the
// validators' tracer, so the benchmark's spans and the herder's phases
// share one store and one clock, and land in one file.
const benchProc = "paybench"

// spanLimit bounds a traced run's tracer. A 25 s pay run records about
// 350,000 spans, the validators' and the benchmark's together.
const spanLimit = 1 << 20

// newTracer is a wall-clock tracer for a traced run.
func newTracer() *obs.Tracer {
	t := obs.NewTracer(nil)
	t.SetLimit(spanLimit)
	return t
}

// exportSpans files the benchmark's span count and each of its span
// names' self time in the record, and writes every span in the tracer to
// the work directory as Chrome trace JSON (loadable in Perfetto).
func exportSpans(tr *obs.Tracer, cfg runConfig, out *outcome) {
	// Snapshots of a few hundred thousand spans are large: collect often
	// rather than let the heap double over them.
	defer debug.SetGCPercent(debug.SetGCPercent(20))
	ex := tr.Export(benchProc)
	var own []obs.ExportSpan
	for _, s := range ex.Spans {
		if s.Proc < len(ex.Procs) && ex.Procs[s.Proc] == benchProc {
			own = append(own, s)
		}
	}
	out.set("trace.spans", float64(len(own)), len(own))
	self := map[string]float64{}
	for name, d := range selfTimes(own) {
		self[name] = float64(d) / float64(time.Millisecond)
	}
	out.detail["self_ms"] = self
	out.detail["spans_all_procs"] = len(ex.Spans)
	out.detail["spans_dropped"] = ex.Dropped

	path := filepath.Join(cfg.WorkDir, "spans-"+cfg.Workload+".json")
	if err := writeChrome(tr, path); err != nil {
		fmt.Fprintf(os.Stderr, "paybench: writing spans: %v\n", err)
		return
	}
	out.detail["span_file"] = path
}

func writeChrome(tr *obs.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := tr.WriteChromeTrace(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums each span name's self time: its duration minus the part
// of it covered by its children. Spans still open are left out.
func selfTimes(spans []obs.ExportSpan) map[string]time.Duration {
	children := make(map[uint64][]obs.ExportSpan)
	for _, s := range spans {
		if s.Parent != 0 && !s.Open {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		if !s.Open {
			out[s.Name] += time.Duration(s.EndNanos-s.StartNanos) - covered(s, children[s.ID])
		}
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent obs.ExportSpan, kids []obs.ExportSpan) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNanos < kids[j].StartNanos })
	var total int64
	curStart, curEnd := int64(-1), int64(-1)
	for _, k := range kids {
		st, en := max(k.StartNanos, parent.StartNanos), min(k.EndNanos, parent.EndNanos)
		if en <= st {
			continue
		}
		if st > curEnd {
			if curEnd > curStart {
				total += curEnd - curStart
			}
			curStart, curEnd = st, en
		} else if en > curEnd {
			curEnd = en
		}
	}
	if curEnd > curStart {
		total += curEnd - curStart
	}
	return time.Duration(total)
}
