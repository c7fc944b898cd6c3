package wrapper

import (
	"slices"
	"testing"

	"mixsoc/internal/itc02"
)

// waterFillMax over the sorted levels must agree with the max of the
// materialized waterFill over the unsorted bins for adversarial small
// cases (remainder spreads, zero cells, single bin).
func TestWaterFillMaxMatchesWaterFill(t *testing.T) {
	cases := []struct {
		base  []int
		cells int
	}{
		{[]int{0}, 0},
		{[]int{0}, 7},
		{[]int{5, 0, 0}, 4},
		{[]int{5, 0, 0}, 11},
		{[]int{3, 3, 3}, 2},
		{[]int{10, 1, 4, 4}, 9},
		{[]int{10, 1, 4, 4}, 50},
		{[]int{2, 9, 2, 9, 2}, 13},
	}
	for _, c := range cases {
		full := waterFill(c.base, c.cells, len(c.base))
		want := maxOf(full)
		lv := slices.Sorted(slices.Values(c.base))
		if got := waterFillMax(lv, c.cells); got != want {
			t.Errorf("waterFillMax(%v, %d) = %d, want %d (filled %v)", c.base, c.cells, got, want, full)
		}
	}
}

func BenchmarkParetoP93791(b *testing.B) {
	soc := itc02.P93791()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range soc.Cores() {
			if _, err := Pareto(m, 64); err != nil {
				b.Fatal(err)
			}
		}
	}
}
