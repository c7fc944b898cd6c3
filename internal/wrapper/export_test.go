package wrapper

import "mixsoc/internal/itc02"

// FastTimes returns timeWith(m, w) for w = 1..maxW through one reused
// scratch buffer, the way Pareto evaluates a staircase. It exports the
// fast path to the external exactness test, which draws modules from
// socgen and so cannot live inside this package.
func FastTimes(m *itc02.Module, maxW int) []int64 {
	buf := newDesignBuf(m, maxW)
	out := make([]int64, maxW)
	for w := 1; w <= maxW; w++ {
		out[w-1] = timeWith(m, w, buf)
	}
	return out
}
