package experiments_test

import (
	"fmt"

	"mixsoc/internal/core"
	"mixsoc/internal/experiments"
)

// ExampleTable4 runs a small Table 4 grid — two TAM widths at equal
// weights — and prints how many evaluations Cost_Optimizer needed
// against the exhaustive search, and whether it found the optimum.
func ExampleTable4() {
	res, err := experiments.Table4(nil, []int{24, 32}, []core.Weights{core.EqualWeights})
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, c := range res.Cells {
		fmt.Printf("W=%d: heuristic %d of %d evaluations, optimal %v\n",
			c.Width, c.HeuristicNEval, c.ExhaustiveNEval, c.Optimal)
	}
	// Output:
	// W=24: heuristic 13 of 26 evaluations, optimal true
	// W=32: heuristic 13 of 26 evaluations, optimal true
}
