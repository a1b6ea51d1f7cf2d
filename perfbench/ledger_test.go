package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

// replayInputs builds the inputs a traced run of w replays for seed.
func replayInputs(t *testing.T, w *workload, seed int64) []*input {
	t.Helper()
	ins, err := w.images(seed, w.Warmup, w.Warmup+w.Replay)
	if err != nil {
		t.Fatal(err)
	}
	return ins
}

// TestLedgerRepeatsForSeed replays each workload twice from the same
// seed and requires every exact count — cycle-model charges, decoded
// instructions, allocations per layer call — to repeat exactly.
func TestLedgerRepeatsForSeed(t *testing.T) {
	for _, name := range []string{"cold-mixed", "fleet-repeat"} {
		t.Run(name, func(t *testing.T) {
			if testing.Short() && name != "cold-mixed" {
				t.Skip("replays large images; run without -short")
			}
			w := workloads[name]
			var ledgers [2]map[string]uint64
			for i := range ledgers {
				l, _, err := replay(w, replayInputs(t, w, 7))
				if err != nil {
					t.Fatal(err)
				}
				if len(l.Mismatches) > 0 {
					t.Fatalf("replayed verdicts differ from the oracle: %v", l.Mismatches)
				}
				ledgers[i] = l.Ledger
			}
			if len(ledgers[0]) == 0 {
				t.Fatal("empty ledger")
			}
			keys := map[string]bool{}
			for _, l := range ledgers {
				for k := range l {
					keys[k] = true
				}
			}
			var diff []string
			for k := range keys {
				a, okA := ledgers[0][k]
				b, okB := ledgers[1][k]
				if a != b || okA != okB {
					diff = append(diff, k)
				}
			}
			sort.Strings(diff)
			for _, k := range diff {
				t.Errorf("%s: %d then %d", k, ledgers[0][k], ledgers[1][k])
			}
		})
	}
}

func TestNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if q := nearestRank(xs, 0.5); q.Value != 50 || q.Rank != 50 {
		t.Errorf("p50 = %+v, want the 50th of 100", q)
	}
	if q := tailRank(xs); q.Value != 90 || q.Rank != 90 {
		t.Errorf("tail = %+v, want p90 at n = 100", q)
	}
	if q := tailRank(xs[:15]); q.Rank != 8 {
		t.Errorf("tail at n = 15 = %+v, want the median rank 8", q)
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the result line in
// step: the workloads it names exist, and its metric names and units are
// the ones the benchmark prints.
func TestBenchmarkFileMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	var want []m
	for _, p := range perLayer {
		want = append(want, m{p.name, p.unit})
	}
	if !reflect.DeepEqual(b.PerLayer, want) {
		t.Errorf("per_layer = %v, benchmark prints %v", b.PerLayer, want)
	}
	r := &report{}
	r.summarize(nil, time.Now(), 0, 0)
	got := map[string]string{}
	for _, e := range b.EndToEnd {
		got[e.Name] = e.Unit
	}
	for name, v := range r.Metrics {
		if got[name] != v.Unit {
			t.Errorf("end-to-end %s: BENCHMARK.json unit %q, benchmark prints %q", name, got[name], v.Unit)
		}
	}
	if len(got) != len(r.Metrics) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, benchmark prints %d", len(got), len(r.Metrics))
	}
}
