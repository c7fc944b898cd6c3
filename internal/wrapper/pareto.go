package wrapper

import (
	"fmt"

	"mixsoc/internal/itc02"
)

// Point is one step of a module's test-time staircase: using Width TAM
// wires, the module's tests finish in Time cycles.
type Point struct {
	Width int
	Time  int64
}

// Pareto returns the staircase of useful widths for module m up to maxW:
// the (width, time) pairs at which the test time strictly improves over
// every smaller width. The first point always has Width 1, and times are
// strictly decreasing. Schedulers should only consider these widths; any
// other width wastes TAM wires without reducing time.
func Pareto(m *itc02.Module, maxW int) ([]Point, error) {
	if m == nil {
		return nil, fmt.Errorf("wrapper: nil module")
	}
	if maxW < 1 {
		return nil, fmt.Errorf("wrapper: module %d: maxW %d < 1", m.ID, maxW)
	}
	// One scratch buffer serves every width, so the maxW wrapper designs
	// of the staircase cost zero steady-state allocations.
	buf := newDesignBuf(m, maxW)
	var pts []Point
	best := int64(-1)
	for w := 1; w <= maxW; w++ {
		t := timeWith(m, w, buf)
		if best < 0 || t < best {
			best = t
			pts = append(pts, Point{Width: w, Time: t})
		}
	}
	return pts, nil
}
