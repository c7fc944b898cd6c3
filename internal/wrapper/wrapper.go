// Package wrapper designs test wrappers for digital cores and computes
// the resulting core test times.
//
// The algorithm is the Design_wrapper approach of Iyengar, Chakrabarty
// and Marinissen ("Co-optimization of test wrapper and test access
// architecture for embedded cores", JETTA 2002), which the paper uses for
// its digital cores (Section 4, ref [13]):
//
//   - the module's internal scan chains are partitioned into at most w
//     wrapper chains with a best-fit-decreasing heuristic that minimizes
//     the longest wrapper chain;
//   - functional input (and bidirectional) cells are distributed over the
//     wrapper chains to balance the scan-in lengths, and output cells to
//     balance the scan-out lengths (exact water-filling);
//   - the test application time for p patterns is
//     T = (1 + max(si, so))·p + min(si, so)
//     where si and so are the longest wrapper scan-in and scan-out chains.
//
// Because adding wires beyond the point where the longest chain can no
// longer be shortened does not reduce T, the test time is a "staircase"
// in w; Pareto returns only the widths at which T actually improves,
// which is what the TAM scheduler packs with.
package wrapper

import (
	"fmt"
	"slices"
	"sort"

	"mixsoc/internal/itc02"
)

// Design is a wrapper configuration for a module at a given TAM width.
type Design struct {
	Module  *itc02.Module
	Width   int     // number of wrapper chains (TAM wires used)
	ScanIn  []int   // per-chain scan-in lengths: input cells + scan bits
	ScanOut []int   // per-chain scan-out lengths: scan bits + output cells
	Time    int64   // total test time over all TAM tests, in cycles
	PerTest []int64 // test time per module test (same order as Module.Tests)
}

// MaxScanIn returns the longest wrapper scan-in chain.
func (d *Design) MaxScanIn() int { return maxOf(d.ScanIn) }

// MaxScanOut returns the longest wrapper scan-out chain.
func (d *Design) MaxScanOut() int { return maxOf(d.ScanOut) }

func maxOf(v []int) int {
	m := 0
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

// New designs a wrapper for module m with w TAM wires. It returns an
// error if w < 1 or the module is nil.
func New(m *itc02.Module, w int) (*Design, error) {
	if m == nil {
		return nil, fmt.Errorf("wrapper: nil module")
	}
	if w < 1 {
		return nil, fmt.Errorf("wrapper: module %d: width %d < 1", m.ID, w)
	}
	d := &Design{Module: m, Width: w}

	// Partition internal scan chains into at most w wrapper chains.
	parts := partitionBFD(m.SortedScanDescending(), w)

	// Water-fill input cells over scan-in lengths and output cells over
	// scan-out lengths. Bidirectional terminals need both an input and an
	// output cell.
	d.ScanIn = waterFill(parts, m.Inputs+m.Bidirs, w)
	d.ScanOut = waterFill(parts, m.Outputs+m.Bidirs, w)

	si, so := d.MaxScanIn(), d.MaxScanOut()
	for _, t := range m.Tests {
		var tt int64
		switch {
		case !t.TamUse:
			// Functionally applied test: occupies the core but not the
			// TAM; it still takes one cycle per pattern.
			tt = int64(t.Patterns)
		case t.ScanUse:
			tt = scanTestTime(si, so, t.Patterns)
		default:
			// TAM test without scan load: only the wrapper boundary
			// cells shift, balanced over the w wires.
			isi := ceilDiv(m.Inputs+m.Bidirs, w)
			iso := ceilDiv(m.Outputs+m.Bidirs, w)
			tt = scanTestTime(isi, iso, t.Patterns)
		}
		d.PerTest = append(d.PerTest, tt)
		d.Time += tt
	}
	return d, nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// scanTestTime is the JETTA test-time formula.
func scanTestTime(si, so, patterns int) int64 {
	longer, shorter := si, so
	if so > si {
		longer, shorter = so, si
	}
	return int64(1+longer)*int64(patterns) + int64(shorter)
}

// Time computes the total test time for module m at width w without
// retaining the design.
func Time(m *itc02.Module, w int) (int64, error) {
	d, err := New(m, w)
	if err != nil {
		return 0, err
	}
	return d.Time, nil
}

// partitionBFD distributes the descending-sorted chain lengths over at
// most w bins, always placing the next chain in the currently lightest
// bin (best fit decreasing). The returned slice has exactly w entries;
// unused bins are zero.
func partitionBFD(sortedDesc []int, w int) []int {
	bins := make([]int, w)
	partitionBFDInto(sortedDesc, bins)
	return bins
}

// partitionBFDInto is partitionBFD writing into a caller-owned slice.
func partitionBFDInto(sortedDesc []int, bins []int) {
	clear(bins)
	for _, l := range sortedDesc {
		// Find the lightest bin. len(bins) is small (≤ a few hundred),
		// so a linear scan beats heap bookkeeping in practice.
		best := 0
		for i := 1; i < len(bins); i++ {
			if bins[i] < bins[best] {
				best = i
			}
		}
		bins[best] += l
	}
}

// designBuf holds the scratch buffers a staircase computation reuses
// across widths, so evaluating a module at every width up to maxW does
// not allocate per width. One buffer serves one goroutine.
type designBuf struct {
	sortedScan []int // module scan chains, descending, computed once
	lv         []int // sorted wrapper chain levels, one per wire
}

func newDesignBuf(m *itc02.Module, maxW int) *designBuf {
	return &designBuf{
		sortedScan: m.SortedScanDescending(),
		lv:         make([]int, maxW),
	}
}

// waterFillMax returns the maximum bin level after water-filling cells
// over the ascending levels lv (the quantity scanTestTime needs),
// without materializing the filled bins. It reproduces waterFill's
// arithmetic exactly: bins are raised lowest-first to a common level,
// then the remainder is spread one cell per bin. Water-filling depends
// only on the multiset of levels, so sorted levels serve any bin order.
func waterFillMax(lv []int, cells int) int {
	w := len(lv)
	maxBase := lv[w-1]
	if cells <= 0 {
		return maxBase
	}
	remaining := cells
	for k := 0; k < w; k++ {
		level := lv[k]
		var next int
		if k+1 < w {
			next = lv[k+1]
		} else {
			next = level + remaining // unbounded: final spread
		}
		capacity := (k + 1) * (next - level)
		if capacity >= remaining {
			top := level + remaining/(k+1)
			if remaining%(k+1) > 0 {
				top++
			}
			if top > maxBase {
				return top
			}
			return maxBase
		}
		remaining -= capacity
	}
	return maxBase
}

// timeWith computes Time(m, w) through the scratch buffers: the same
// BFD partition, water-filling and per-test formula as New, minus every
// allocation. The partition's levels are sorted once for both
// water-fills; with no more chains than wires BFD gives every chain its
// own wire, so the levels are w−c zeros and the chains, ascending.
func timeWith(m *itc02.Module, w int, b *designBuf) int64 {
	lv := b.lv[:w]
	if c := len(b.sortedScan); c <= w {
		clear(lv[:w-c])
		for i, l := range b.sortedScan {
			lv[w-1-i] = l
		}
	} else {
		partitionBFDInto(b.sortedScan, lv)
		slices.Sort(lv)
	}
	si := waterFillMax(lv, m.Inputs+m.Bidirs)
	so := waterFillMax(lv, m.Outputs+m.Bidirs)

	var total int64
	for _, t := range m.Tests {
		switch {
		case !t.TamUse:
			total += int64(t.Patterns)
		case t.ScanUse:
			total += scanTestTime(si, so, t.Patterns)
		default:
			isi := ceilDiv(m.Inputs+m.Bidirs, w)
			iso := ceilDiv(m.Outputs+m.Bidirs, w)
			total += scanTestTime(isi, iso, t.Patterns)
		}
	}
	return total
}

// waterFill adds cells IO cells to the bins so that the maximum is
// minimized: bins are filled lowest-first up to a common level, then the
// remainder is spread one cell per bin. base is not modified.
func waterFill(base []int, cells, w int) []int {
	out := make([]int, w)
	copy(out, base)
	if cells <= 0 {
		return out
	}
	// Sort bin indices by level.
	idx := make([]int, w)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return out[idx[a]] < out[idx[b]] })

	remaining := cells
	for k := 0; k < w && remaining > 0; k++ {
		// Raise bins idx[0..k] to the level of idx[k+1] (or distribute the
		// remainder evenly if this is the last step).
		level := out[idx[k]]
		var next int
		if k+1 < w {
			next = out[idx[k+1]]
		} else {
			next = level + remaining // unbounded: final spread
		}
		capacity := (k + 1) * (next - level)
		if capacity >= remaining {
			// Distribute remaining over bins idx[0..k]: each gets
			// remaining/(k+1), first remainder bins get one more.
			q, r := remaining/(k+1), remaining%(k+1)
			for j := 0; j <= k; j++ {
				out[idx[j]] = level + q
				if j < r {
					out[idx[j]]++
				}
			}
			remaining = 0
		} else {
			for j := 0; j <= k; j++ {
				out[idx[j]] = next
			}
			remaining -= capacity
		}
	}
	return out
}
