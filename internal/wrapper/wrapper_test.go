package wrapper

import (
	"fmt"
	"testing"
	"testing/quick"

	"mixsoc/internal/itc02"
)

func scanModule(id int, in, out, bid int, scan []int, patterns int) *itc02.Module {
	return &itc02.Module{
		ID: id, Name: "m", Level: 1, Inputs: in, Outputs: out, Bidirs: bid,
		Scan:  scan,
		Tests: []itc02.Test{{ID: 1, Patterns: patterns, ScanUse: len(scan) > 0, TamUse: true}},
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	if _, err := New(nil, 1); err == nil {
		t.Error("nil module accepted")
	}
	if _, err := New(scanModule(1, 1, 1, 0, nil, 1), 0); err == nil {
		t.Error("width 0 accepted")
	}
	if _, err := Pareto(scanModule(1, 1, 1, 0, nil, 1), 0); err == nil {
		t.Error("Pareto maxW 0 accepted")
	}
}

func TestSingleWireTime(t *testing.T) {
	// One wire: everything in one chain. si = in+bid+scan = 2+1+10 = 13,
	// so = scan+out+bid = 10+3+1 = 14. T = (1+14)*5 + 13 = 88.
	m := scanModule(1, 2, 3, 1, []int{10}, 5)
	d, err := New(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if maxOf(d.ScanIn) != 13 || maxOf(d.ScanOut) != 14 {
		t.Errorf("si=%d so=%d, want 13/14", maxOf(d.ScanIn), maxOf(d.ScanOut))
	}
	if d.Time != 88 {
		t.Errorf("Time = %d, want 88", d.Time)
	}
}

func TestCombinationalModule(t *testing.T) {
	// No scan: 8 input cells, 4 output cells over 2 wires:
	// si = 4, so = 2, T = (1+4)*10 + 2 = 52.
	m := scanModule(1, 8, 4, 0, nil, 10)
	d, err := New(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Time != 52 {
		t.Errorf("Time = %d, want 52", d.Time)
	}
}

func TestNonScanTamTest(t *testing.T) {
	m := &itc02.Module{
		ID: 1, Inputs: 6, Outputs: 3, Scan: []int{50, 40},
		Tests: []itc02.Test{
			{ID: 1, Patterns: 10, ScanUse: true, TamUse: true},
			{ID: 2, Patterns: 4, ScanUse: false, TamUse: true},
		},
	}
	d, err := New(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.PerTest) != 2 {
		t.Fatalf("PerTest = %v", d.PerTest)
	}
	// Test 2: isi = ceil(6/2)=3, iso = ceil(3/2)=2 -> (1+3)*4+2 = 18.
	if d.PerTest[1] != 18 {
		t.Errorf("non-scan test time = %d, want 18", d.PerTest[1])
	}
	if d.Time != d.PerTest[0]+d.PerTest[1] {
		t.Error("Time is not the sum of PerTest")
	}
}

func TestFunctionalTestTime(t *testing.T) {
	m := &itc02.Module{
		ID: 1, Inputs: 4, Outputs: 4,
		Tests: []itc02.Test{{ID: 1, Patterns: 25, TamUse: false}},
	}
	d, err := New(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d.Time != 25 {
		t.Errorf("functional test time = %d, want 25 (one cycle/pattern)", d.Time)
	}
}

func TestPartitionBFDBalances(t *testing.T) {
	bins := partitionBFD([]int{9, 8, 7, 3, 2, 1}, 3)
	// BFD: 9|8|7 then 3->bin2(7+3=10)... lightest after 9,8,7 is 7: +3=10;
	// lightest is 8: +2=10; lightest is 9: +1=10. Perfectly balanced.
	for i, b := range bins {
		if b != 10 {
			t.Fatalf("bin %d = %d, want 10 (%v)", i, b, bins)
		}
	}
}

func TestWaterFillExact(t *testing.T) {
	cases := []struct {
		base    []int
		cells   int
		wantMax int
	}{
		{[]int{5, 3, 8}, 4, 8},     // fits under the tallest bin
		{[]int{5, 3, 8}, 20, 12},   // (16+20)/3 = 12 exactly
		{[]int{0, 0, 0, 0}, 10, 3}, // ceil(10/4)
		{[]int{7}, 5, 12},          // single bin
		{[]int{2, 2}, 0, 2},        // nothing to add
	}
	for _, tc := range cases {
		got := waterFill(tc.base, tc.cells, len(tc.base))
		total := 0
		for _, b := range tc.base {
			total += b
		}
		sum := 0
		maxv := 0
		for _, g := range got {
			sum += g
			if g > maxv {
				maxv = g
			}
		}
		if sum != total+tc.cells {
			t.Errorf("waterFill(%v,%d) lost cells: sum %d", tc.base, tc.cells, sum)
		}
		if maxv != tc.wantMax {
			t.Errorf("waterFill(%v,%d) max = %d, want %d", tc.base, tc.cells, maxv, tc.wantMax)
		}
	}
}

func TestWaterFillOptimalProperty(t *testing.T) {
	// The resulting max must equal the water-filling optimum:
	// the smallest L with sum(max(0, L-base_i)) >= cells, L >= max(base).
	f := func(raw []uint8, cells uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 12 {
			raw = raw[:12]
		}
		base := make([]int, len(raw))
		for i, r := range raw {
			base[i] = int(r % 50)
		}
		got := waterFill(base, int(cells), len(base))
		gotMax := 0
		for _, g := range got {
			if g > gotMax {
				gotMax = g
			}
		}
		// brute-force optimum
		L := 0
		for _, b := range base {
			if b > L {
				L = b
			}
		}
		for {
			cap := 0
			for _, b := range base {
				cap += L - b
			}
			if cap >= int(cells) {
				break
			}
			L++
		}
		return gotMax == L
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// BestTime returns the smallest test time achievable with at most w TAM
// wires. Because a core connected to w wires can always be configured to
// use fewer, BestTime is non-increasing in w by construction, which
// smooths out any partitioning-heuristic anomalies.
func BestTime(m *itc02.Module, w int) (int64, error) {
	if m == nil {
		return 0, fmt.Errorf("wrapper: nil module")
	}
	if w < 1 {
		return 0, fmt.Errorf("wrapper: module %d: width %d < 1", m.ID, w)
	}
	buf := newDesignBuf(m, w)
	best := int64(-1)
	for wi := 1; wi <= w; wi++ {
		t := timeWith(m, wi, buf)
		if best < 0 || t < best {
			best = t
		}
	}
	return best, nil
}

func TestBestTimeMonotone(t *testing.T) {
	for _, m := range itc02.P93791().Cores() {
		prev := int64(-1)
		for w := 1; w <= 24; w++ {
			bt, err := BestTime(m, w)
			if err != nil {
				t.Fatal(err)
			}
			if prev >= 0 && bt > prev {
				t.Fatalf("module %d: BestTime(%d)=%d > BestTime(%d)=%d", m.ID, w, bt, w-1, prev)
			}
			prev = bt
		}
	}
}

func TestParetoShape(t *testing.T) {
	for _, m := range itc02.P93791().Cores() {
		pts, err := Pareto(m, 40)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) == 0 {
			t.Fatalf("module %d: empty staircase", m.ID)
		}
		if pts[0].Width != 1 {
			t.Errorf("module %d: first width = %d, want 1", m.ID, pts[0].Width)
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].Width <= pts[i-1].Width || pts[i].Time >= pts[i-1].Time {
				t.Errorf("module %d: staircase not strictly improving at %d: %v", m.ID, i, pts)
			}
		}
	}
}

// TimeAt evaluates a staircase at width w: the time of the widest point
// with Width ≤ w. It panics if w is below the first point's width.
func TimeAt(pts []Point, w int) int64 {
	if len(pts) == 0 || w < pts[0].Width {
		panic(fmt.Sprintf("wrapper: TimeAt(%d) below staircase start", w))
	}
	t := pts[0].Time
	for _, p := range pts {
		if p.Width > w {
			break
		}
		t = p.Time
	}
	return t
}

func TestStaircaseMatchesTimeAt(t *testing.T) {
	// TimeAt over the Pareto staircase equals BestTime for every width.
	m := itc02.P93791().Cores()[1]
	pts, err := Pareto(m, 30)
	if err != nil {
		t.Fatal(err)
	}
	for w := 1; w <= 30; w++ {
		bt, err := BestTime(m, w)
		if err != nil {
			t.Fatal(err)
		}
		if got := TimeAt(pts, w); got != bt {
			t.Errorf("w=%d: TimeAt=%d BestTime=%d", w, got, bt)
		}
	}
}

func BenchmarkDesignWrapper(b *testing.B) {
	m := itc02.P93791().Cores()[1] // biggest scan core
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(m, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPareto64(b *testing.B) {
	m := itc02.P93791().Cores()[1]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Pareto(m, 64); err != nil {
			b.Fatal(err)
		}
	}
}
