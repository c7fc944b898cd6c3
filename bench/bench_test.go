package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs all four workloads and the traced phase at a tiny
// scale and checks that every metric BENCHMARK.json names is reported,
// finite and in the declared unit, and that nothing failed.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	t.Chdir("..") // the benchmark runs from the repository root
	var stdout bytes.Buffer
	ok, err := run([]string{"-seconds", "0.2", "-scale", "0.01", "-trace", "1", "-out", out}, &stdout)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("run reported failures:\n%s", stdout.String())
	}

	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	readJSON(t, "BENCHMARK.json", &spec)
	units := map[string]string{}
	for _, m := range append(endToEndMetrics, perLayerMetrics...) {
		units[m.name] = m.unit
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if units[m.Name] != m.Unit {
			t.Errorf("BENCHMARK.json declares %s in %q, the benchmark reports %q", m.Name, m.Unit, units[m.Name])
		}
	}

	var results struct {
		Workloads []struct {
			Workload  string             `json:"workload"`
			ErrorRate float64            `json:"error_rate"`
			EndToEnd  map[string]float64 `json:"end_to_end"`
			PerLayer  map[string]float64 `json:"per_layer"`
		} `json:"workloads"`
	}
	readJSON(t, filepath.Join(out, "results.json"), &results)
	if len(results.Workloads) != len(workloads) {
		t.Fatalf("results.json has %d workloads, want %d", len(results.Workloads), len(workloads))
	}
	for _, w := range results.Workloads {
		if w.ErrorRate != 0 {
			t.Errorf("%s: error_rate %v", w.Workload, w.ErrorRate)
		}
		check := func(values map[string]float64, name string) {
			v, ok := values[name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: metric %s = %v (reported: %t)", w.Workload, name, v, ok)
			}
		}
		for _, m := range spec.EndToEnd {
			check(w.EndToEnd, m.Name)
		}
		for _, m := range spec.PerLayer {
			check(w.PerLayer, m.Name)
		}
	}
	if _, err := os.Stat(filepath.Join(out, "trace.json")); err != nil {
		t.Error(err)
	}

	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last output line is not the result object: %v", err)
	}
	if !last.Correct || last.Attempted < 1 || last.Failed != 0 {
		t.Errorf("result line = %+v", last)
	}
	if got, want := len(last.Metrics), len(workloads)*len(spec.PerLayer); got != want {
		t.Errorf("result line has %d metrics, want %d (every per-layer metric of every workload)", got, want)
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

func TestTailQuantileRule(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		q      float64
		value  float64
		beyond int
	}{
		{0.5, 50, 50},
		{0.9, 90, 10},
		{0.99, 99, 1},
		{1, 100, 0},
		{0, 1, 99},
	} {
		v, beyond := tail(samples, tc.q)
		if v != tc.value || beyond != tc.beyond {
			t.Errorf("tail(1..100, %v) = %v with %d beyond, want %v with %d", tc.q, v, beyond, tc.value, tc.beyond)
		}
		if q := quantile(samples, tc.q); q != tc.value {
			t.Errorf("quantile(1..100, %v) = %v, want %v", tc.q, q, tc.value)
		}
	}
	// p99 of 3000 samples leaves exactly the 30 the rule asks for.
	if _, beyond := tail(make([]float64, 3000), 0.99); beyond != minTailSamples {
		t.Errorf("p99 of 3000 samples leaves %d beyond, want %d", beyond, minTailSamples)
	}
	if v, beyond := tail(nil, 0.99); v != 0 || beyond != 0 {
		t.Errorf("tail of no samples = %v, %d", v, beyond)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestQuietTail checks that the tail pools the rounds with the lowest
// medians, as few as leave minTailSamples beyond the percentile.
func TestQuietTail(t *testing.T) {
	round := func(p50, slow float64) roundStats {
		lats := make([]float64, 2000)
		for i := range lats {
			lats[i] = p50
			if i >= 1960 {
				lats[i] = slow // the slowest 2%
			}
		}
		return roundStats{P50: p50, lats: lats}
	}
	rounds := []roundStats{round(3, 300), round(1, 10), round(2, 20)}
	for _, tc := range []struct {
		q      float64
		value  float64
		rounds int
	}{
		// One round leaves 200 samples beyond p90: the quietest suffices.
		{0.9, 1, 1},
		// p99 of one round leaves 20 beyond, of two 40: the two quietest,
		// whose slowest 2% are 10 and 20 ms.
		{0.99, 10, 2},
		// Even all three leave fewer than 30 beyond p99.9: pool them all.
		{0.999, 300, 3},
	} {
		ti := quietTail(rounds, tc.q)
		if ti.Value != tc.value || ti.Rounds != tc.rounds || ti.Samples != 2000*tc.rounds {
			t.Errorf("quietTail(q=%v) = %+v, want %v ms from %d rounds", tc.q, ti, tc.value, tc.rounds)
		}
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "planner.solve", ID: 1, Start: 0, End: 100},
		// Two parallel packs overlapping on [30, 40], one sequential pack,
		// and one pack reaching past its parent's end.
		{Name: "tam.pack", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "tam.pack", ID: 3, Parent: 1, Start: 30, End: 60},
		{Name: "tam.pack", ID: 4, Parent: 1, Start: 70, End: 80},
		{Name: "tam.pack", ID: 5, Parent: 1, Start: 95, End: 120},
		// A grandchild counts against its parent only.
		{Name: "inner", ID: 6, Parent: 4, Start: 72, End: 75},
		{Name: "other", ID: 7, Start: 0, End: 10},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 100 - 50 - 10 - 5, 2: 30, 3: 30, 4: 7, 5: 25, 6: 3, 7: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestSameSeedSameBodies(t *testing.T) {
	for _, wl := range workloads {
		bodies := func(seed int64) [][]byte {
			reqs, err := wl.requests(seed, 1)
			if err != nil {
				t.Fatal(err)
			}
			var out [][]byte
			for i := range 3 {
				b, err := reqs.body(i)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, b)
			}
			return out
		}
		a, b, other := bodies(7), bodies(7), bodies(8)
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Errorf("%s: request %d differs between two streams of seed 7", wl.name, i)
			}
		}
		if bytes.Equal(bytes.Join(a, nil), bytes.Join(other, nil)) {
			t.Errorf("%s: seeds 7 and 8 generate the same requests", wl.name)
		}
	}
}
