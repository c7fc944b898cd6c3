package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTrail lays down one synthetic perf trail directory.
func writeTrail(t *testing.T, parent, name string, reps ...report) string {
	t.Helper()
	dir := filepath.Join(parent, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, r := range reps {
		writeReport(t, dir, r)
	}
	return dir
}

// TestRunTrendFlagsInjectedRegression is the acceptance check for the
// trend mode: across three synthetic trails, a benchmark whose latest
// time jumps beyond the threshold is flagged by name with both times,
// and a flat benchmark is not.
func TestRunTrendFlagsInjectedRegression(t *testing.T) {
	root := t.TempDir()
	t1 := writeTrail(t, root, "2026-01-01",
		report{Name: "steady", BestSeconds: 1.0, Metrics: map[string]float64{"m": 1}},
		report{Name: "hot", BestSeconds: 0.50, Metrics: map[string]float64{"k": 2}})
	t2 := writeTrail(t, root, "2026-02-01",
		report{Name: "steady", BestSeconds: 1.02, Metrics: map[string]float64{"m": 1}},
		report{Name: "hot", BestSeconds: 0.48, Metrics: map[string]float64{"k": 2}})
	t3 := writeTrail(t, root, "2026-03-01",
		report{Name: "steady", BestSeconds: 0.99, Metrics: map[string]float64{"m": 1}},
		// Injected: 0.48s historical best -> 0.80s latest (+66%).
		report{Name: "hot", BestSeconds: 0.80, Metrics: map[string]float64{"k": 3}})

	lines, failures, err := runTrend([]string{t1, t2, t3}, 15, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(lines, "\n")
	if len(failures) != 1 || !strings.Contains(failures[0], "hot: latest 0.800s vs best 0.480s") {
		t.Errorf("injected regression misreported (failures=%v):\n%s", failures, joined)
	}
	if !strings.Contains(joined, "REGRESSED") {
		t.Errorf("trajectory not flagged:\n%s", joined)
	}
	for _, line := range lines {
		if strings.HasPrefix(line, "steady") && strings.Contains(line, "REGRESSED") {
			t.Errorf("flat benchmark flagged: %s", line)
		}
	}
	// The metric change along the sequence is annotated.
	if !strings.Contains(joined, "metric k: 2 -> 3") {
		t.Errorf("metric change not annotated:\n%s", joined)
	}

	// A single parent directory expands to its trail subdirectories —
	// even when a stray BENCH_*.json sits at the top level beside them.
	writeReport(t, root, report{Name: "stray", BestSeconds: 1.0})
	linesDir, failuresDir, err := runTrend([]string{root}, 15, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(linesDir, "\n") != joined || len(failuresDir) != 1 {
		t.Errorf("parent-directory form disagrees with explicit trails:\n%s", strings.Join(linesDir, "\n"))
	}
}

func TestRunTrendEdgeCases(t *testing.T) {
	root := t.TempDir()
	t1 := writeTrail(t, root, "a", report{Name: "x", BestSeconds: 1.0})
	if _, _, err := runTrend([]string{t1}, 15, 0.01); err == nil {
		t.Error("single trail accepted")
	}

	// Sub-noise-floor trajectories are never time-flagged.
	t2 := writeTrail(t, root, "b", report{Name: "x", BestSeconds: 0.004})
	t3 := writeTrail(t, root, "c", report{Name: "x", BestSeconds: 0.009})
	tiny1 := writeTrail(t, root, "d", report{Name: "x", BestSeconds: 0.002})
	_, failures, err := runTrend([]string{tiny1, t2, t3}, 15, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 0 {
		t.Errorf("noise-floor trajectory flagged: %v", failures)
	}

	// A benchmark absent from the latest trail is annotated, not flagged.
	t4 := writeTrail(t, root, "e", report{Name: "x", BestSeconds: 1.0}, report{Name: "y", BestSeconds: 1.0})
	t5 := writeTrail(t, root, "f", report{Name: "x", BestSeconds: 1.0})
	lines, failures, err := runTrend([]string{t4, t5}, 15, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 0 || !strings.Contains(strings.Join(lines, "\n"), "absent from latest trail") {
		t.Errorf("vanished benchmark misreported (failures=%v):\n%s", failures, strings.Join(lines, "\n"))
	}
}

// TestResolveTrailsDisambiguatesLabels checks that two trails whose
// directories share a base name get distinguishable column labels.
func TestResolveTrailsDisambiguatesLabels(t *testing.T) {
	root := t.TempDir()
	before := writeTrail(t, filepath.Join(root, "before"), "bench-results", report{Name: "x", BestSeconds: 1})
	after := writeTrail(t, filepath.Join(root, "after"), "bench-results", report{Name: "x", BestSeconds: 1})
	trails, err := resolveTrails([]string{before, after})
	if err != nil {
		t.Fatal(err)
	}
	if trails[0].label != "before" || trails[1].label != "after" {
		t.Errorf("labels = %q, %q; want before, after", trails[0].label, trails[1].label)
	}
}
