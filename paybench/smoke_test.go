package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark program when a
// split pay run re-executes itself for each of its parts.
func TestMain(m *testing.M) {
	if req := os.Getenv(partEnv); req != "" {
		os.Exit(runPart(req))
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks the result line: correct, nothing failed, and exactly the
// metrics the mode promises, each with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots validator clusters")
	}
	for _, name := range []string{"pay", "pay-hot", "catchup"} {
		for _, traced := range []bool{false, true} {
			cfg := benchConfig(name, 3, 2, traced, t.TempDir())
			cfg.Accounts, cfg.CatchupLedgers, cfg.CatchupRate = 200, 2, 50
			out, err := workloads[name](cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			var buf bytes.Buffer
			if err := report(&buf, cfg, out, "test"); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: result line: %v", name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d errs=%v",
					name, traced, res.Correct, res.Attempted, res.Failed, out.errs)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Fatalf("%s: %d metrics, want %d", name, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s: metric %s = %+v, want unit %s", name, d.name, m, d.unit)
				}
			}
			if traced {
				// The benchmark's spans land in the span file with the
				// validators' own.
				if res.Metrics["trace.spans"].Value <= 0 {
					t.Errorf("%s: no spans recorded", name)
				}
				path, _ := out.detail["span_file"].(string)
				if st, err := os.Stat(path); err != nil || st.Size() == 0 {
					t.Errorf("%s: span file %q: %v", name, path, err)
				}
			}
			// Two seconds hold too few closes for rates and intervals, but
			// every run confirms something and sets itself up.
			for _, m := range []string{"latency_p50_s", "heap_peak_mib", "setup_s"} {
				if !traced && res.Metrics[m].Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", name, m, res.Metrics[m].Value)
				}
			}
		}
	}
}
