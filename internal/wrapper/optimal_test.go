package wrapper

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"mixsoc/internal/itc02"
)

// This file provides an exact scan-chain partitioner used to measure the
// quality of the best-fit-decreasing heuristic that Design_wrapper uses
// (DESIGN.md ablation "BFD vs optimal"). Min-max partitioning is NP-hard,
// so the exact solver is deliberately bounded to small instances; the
// production path stays on BFD.

// MaxExactChains bounds the instance size OptimalScanPartition accepts.
const MaxExactChains = 24

// OptimalScanPartition partitions the scan chain lengths into at most w
// bins minimizing the maximum bin sum, by branch and bound over items in
// descending order. It returns the optimal maximum bin sum.
func OptimalScanPartition(lengths []int, w int) (int, error) {
	if w < 1 {
		return 0, fmt.Errorf("wrapper: width %d < 1", w)
	}
	if len(lengths) > MaxExactChains {
		return 0, fmt.Errorf("wrapper: exact partition limited to %d chains, got %d", MaxExactChains, len(lengths))
	}
	if len(lengths) == 0 {
		return 0, nil
	}
	items := append([]int(nil), lengths...)
	sort.Sort(sort.Reverse(sort.IntSlice(items)))
	for _, l := range items {
		if l <= 0 {
			return 0, fmt.Errorf("wrapper: non-positive chain length %d", l)
		}
	}

	// Initial incumbent: BFD.
	best := maxOf(partitionBFD(items, w))

	total := 0
	for _, l := range items {
		total += l
	}
	// Trivial lower bound: ceiling of the average, and the largest item.
	lower := (total + w - 1) / w
	if items[0] > lower {
		lower = items[0]
	}
	if best == lower {
		return best, nil
	}

	bins := make([]int, w)
	suffix := make([]int, len(items)+1) // suffix sums for bounding
	for i := len(items) - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + items[i]
	}

	var rec func(i, prevBin int)
	rec = func(i, prevBin int) {
		if best == lower {
			return // proven optimal
		}
		if i == len(items) {
			m := maxOf(bins)
			if m < best {
				best = m
			}
			return
		}
		if maxOf(bins) >= best {
			return
		}
		// Equal items are interchangeable: force them into
		// non-decreasing bin indices so each multiset of assignments is
		// explored once.
		start := 0
		if i > 0 && items[i] == items[i-1] {
			start = prevBin
		}
		// Also skip bins with duplicate loads (bin symmetry).
		seen := map[int]bool{}
		for b := start; b < w; b++ {
			if seen[bins[b]] {
				continue
			}
			seen[bins[b]] = true
			if bins[b]+items[i] >= best {
				continue
			}
			bins[b] += items[i]
			rec(i+1, b)
			bins[b] -= items[i]
		}
	}
	rec(0, 0)
	return best, nil
}

// BFDQuality returns the ratio of the BFD partition's maximum bin to the
// optimum for module m at width w (1.0 means BFD found an optimal scan
// partition). Modules with more than MaxExactChains chains are rejected.
func BFDQuality(m *itc02.Module, w int) (float64, error) {
	if len(m.Scan) == 0 {
		return 1, nil
	}
	opt, err := OptimalScanPartition(m.Scan, w)
	if err != nil {
		return 0, err
	}
	if opt == 0 {
		return 1, nil
	}
	bfd := maxOf(partitionBFD(m.SortedScanDescending(), w))
	return float64(bfd) / float64(opt), nil
}

func TestOptimalScanPartitionSmallCases(t *testing.T) {
	cases := []struct {
		lengths []int
		w       int
		want    int
	}{
		{[]int{10, 10, 10, 10}, 2, 20},
		{[]int{9, 8, 7, 3, 2, 1}, 3, 10}, // perfectly balanced
		{[]int{5}, 3, 5},
		{[]int{7, 7, 7}, 2, 14},
		{[]int{100, 1, 1, 1}, 2, 100},
		{nil, 4, 0},
		{[]int{3, 3, 3, 3, 3}, 5, 3},
		// A case where greedy BFD is suboptimal: {4,4,3,3,3,3} into 2
		// bins: BFD gives 4+3+3=10 vs optimal 4+3+3/4+3+3=10 ... use a
		// classic: {7,6,5,4,4,4} into 2: BFD: 7+4+4=15,6+5+4=15 -> 15 =
		// optimal 15. Use {5,5,4,3,3} into 2: opt 10 (5+5 / 4+3+3).
		{[]int{5, 5, 4, 3, 3}, 2, 10},
	}
	for _, tc := range cases {
		got, err := OptimalScanPartition(tc.lengths, tc.w)
		if err != nil {
			t.Fatalf("%v/%d: %v", tc.lengths, tc.w, err)
		}
		if got != tc.want {
			t.Errorf("OptimalScanPartition(%v, %d) = %d, want %d", tc.lengths, tc.w, got, tc.want)
		}
	}
}

func TestOptimalScanPartitionErrors(t *testing.T) {
	if _, err := OptimalScanPartition([]int{1}, 0); err == nil {
		t.Error("width 0 accepted")
	}
	if _, err := OptimalScanPartition(make([]int, MaxExactChains+1), 2); err == nil {
		t.Error("oversized instance accepted")
	}
	if _, err := OptimalScanPartition([]int{3, 0}, 2); err == nil {
		t.Error("zero-length chain accepted")
	}
}

// Property: BFD is never better than the optimum, and the optimum never
// better than the trivial lower bounds allow.
func TestOptimalVsBFDProperty(t *testing.T) {
	f := func(raw []uint8, wRaw uint8) bool {
		w := int(wRaw%6) + 1
		n := len(raw)
		if n == 0 {
			return true
		}
		if n > 12 {
			n = 12
		}
		lengths := make([]int, n)
		total := 0
		longest := 0
		for i := 0; i < n; i++ {
			lengths[i] = int(raw[i]%200) + 1
			total += lengths[i]
			if lengths[i] > longest {
				longest = lengths[i]
			}
		}
		opt, err := OptimalScanPartition(lengths, w)
		if err != nil {
			return false
		}
		bfd := maxOf(partitionBFD(lengths, w))
		lb := (total + w - 1) / w
		if longest > lb {
			lb = longest
		}
		return opt >= lb && bfd >= opt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestBFDQualityOnBenchmark: on real-shaped scan profiles BFD stays
// within 5% of optimal — the justification for using it in the planner.
func TestBFDQualityOnBenchmark(t *testing.T) {
	worst := 1.0
	checked := 0
	for _, m := range itc02.P93791().Cores() {
		if len(m.Scan) == 0 || len(m.Scan) > MaxExactChains {
			continue
		}
		for _, w := range []int{2, 3, 4, 6, 8} {
			q, err := BFDQuality(m, w)
			if err != nil {
				t.Fatal(err)
			}
			if q < 1 {
				t.Fatalf("module %d: BFD beat the optimum?! q=%v", m.ID, q)
			}
			if q > worst {
				worst = q
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no module small enough for the exact solver")
	}
	t.Logf("checked %d (module,width) pairs; worst BFD/opt ratio %.4f", checked, worst)
	if worst > 1.05 {
		t.Errorf("BFD fell more than 5%% behind optimal: %.4f", worst)
	}
}

func BenchmarkOptimalScanPartition(b *testing.B) {
	lengths := []int{420, 419, 418, 417, 416, 415, 414, 413, 412, 411, 410, 409, 408, 407, 406, 405, 404, 403}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := OptimalScanPartition(lengths, 4); err != nil {
			b.Fatal(err)
		}
	}
}
