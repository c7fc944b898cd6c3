package tam_test

import (
	"testing"

	"mixsoc/internal/analog"
	"mixsoc/internal/core"
	"mixsoc/internal/itc02"
	"mixsoc/internal/partition"
	"mixsoc/internal/tam"
)

// p93791mJobs builds the paper SOC's jobs at the given width, with
// every analog core behind one shared wrapper or each behind its own.
func p93791mJobs(b *testing.B, allShare bool, width int) []*tam.Job {
	d := &core.Design{Name: "p93791m", Digital: itc02.P93791(), Analog: analog.PaperCores()}
	p := d.AllShare()
	if !allShare {
		p = make(partition.Partition, len(d.Analog))
		for i := range p {
			p[i] = []int{i}
		}
	}
	jobs, err := core.BuildJobs(d, p, width)
	if err != nil {
		b.Fatal(err)
	}
	return jobs
}

// BenchmarkAblationFixedBus compares the paper's flexible-width
// rectangle packing against the fixed-width multi-bus baseline of its
// predecessor [5]: the architectural claim of Section 4 ("the analog
// cores do not use all the TAM wires ... the overall time taken to test
// the SOC is not optimized").
func BenchmarkAblationFixedBus(b *testing.B) {
	jobs := p93791mJobs(b, true, 32)
	b.Run("flexible", func(b *testing.B) {
		var makespan int64
		for i := 0; i < b.N; i++ {
			s, err := tam.OccupancyPacker{}.Pack(jobs, 32)
			if err != nil {
				b.Fatal(err)
			}
			makespan = s.Makespan
		}
		b.ReportMetric(float64(makespan), "cycles")
	})
	b.Run("fixed-bus", func(b *testing.B) {
		var makespan int64
		for i := 0; i < b.N; i++ {
			s, err := tam.OptimizeFixedBus(jobs, 32, 6)
			if err != nil {
				b.Fatal(err)
			}
			makespan = s.Makespan
		}
		b.ReportMetric(float64(makespan), "cycles")
	})
}

// BenchmarkAblationParetoPruning compares packing with the Pareto
// staircase against packing over the full width range; the result
// quality is identical while the Pareto variant does far less work.
func BenchmarkAblationParetoPruning(b *testing.B) {
	jobs := p93791mJobs(b, false, 64)
	b.Run("pareto", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (tam.OccupancyPacker{}).Pack(jobs, 64); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-staircase", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (tam.OccupancyPacker{}).Pack(jobs, 64, tam.WithFullStaircase()); err != nil {
				b.Fatal(err)
			}
		}
	})
}
