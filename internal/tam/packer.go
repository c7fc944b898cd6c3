package tam

import "fmt"

// Packer is a pluggable packing backend: given a job set and a bin
// width it returns a validated Schedule. Every backend honours the same
// Option set — warm-start seeding (WithWarmStart), cancellation
// (WithContext) and the WithFullStaircase ablation — and every output
// passes the one shared feasibility contract, Schedule.Validate, so
// backends are interchangeable anywhere a schedule is consumed and
// differ only in search strategy (and therefore makespan).
type Packer interface {
	// Name returns the backend's registry name (e.g. "occupancy").
	Name() string
	// Pack packs the jobs into a TAM of the given width.
	Pack(jobs []*Job, width int, opts ...Option) (*Schedule, error)
}

// Backend registry names. The empty string resolves to the default
// backend (occupancy), keeping every pre-existing call path — and its
// bytes — unchanged.
const (
	// BackendOccupancy names the default occupancy-sweep backend
	// (Optimize): three complementary orderings packed concurrently,
	// then a repack + improve polish.
	BackendOccupancy = "occupancy"
	// BackendRectangle names the rectangle bin-packing backend
	// (PackRectangle): one diagonal-length ordering pass (arXiv
	// 1008.4446) plus the shared improve polish.
	BackendRectangle = "rectangle"
)

// OccupancyPacker is the default backend, wrapping Optimize.
type OccupancyPacker struct{}

// Name implements Packer.
func (OccupancyPacker) Name() string { return BackendOccupancy }

// Pack implements Packer by calling Optimize.
func (OccupancyPacker) Pack(jobs []*Job, width int, opts ...Option) (*Schedule, error) {
	return Optimize(jobs, width, opts...)
}

// RectanglePacker is the rectangle bin-packing backend, wrapping
// PackRectangle.
type RectanglePacker struct{}

// Name implements Packer.
func (RectanglePacker) Name() string { return BackendRectangle }

// Pack implements Packer by calling PackRectangle.
func (RectanglePacker) Pack(jobs []*Job, width int, opts ...Option) (*Schedule, error) {
	return PackRectangle(jobs, width, opts...)
}

// Compile-time interface assertions: every backend satisfies Packer.
var (
	_ Packer = OccupancyPacker{}
	_ Packer = RectanglePacker{}
)

// Backends lists the registered backend names in registry order (the
// default first). The slice is fresh on every call.
func Backends() []string {
	return []string{BackendOccupancy, BackendRectangle}
}

// Lookup resolves a backend name to its Packer. The empty string means
// the default (occupancy) backend; an unknown name is an error listing
// the registered backends.
func Lookup(name string) (Packer, error) {
	switch name {
	case "", BackendOccupancy:
		return OccupancyPacker{}, nil
	case BackendRectangle:
		return RectanglePacker{}, nil
	}
	return nil, fmt.Errorf("tam: unknown packing backend %q (have %v)", name, Backends())
}

// validateJobs runs the shared pre-pack checks every backend performs:
// each job must validate against the bin width and job IDs must be
// unique. seen must be empty; it collects the job IDs.
func validateJobs(jobs []*Job, width int, seen map[string]bool) error {
	for _, j := range jobs {
		if err := j.Validate(width); err != nil {
			return err
		}
		if seen[j.ID] {
			return fmt.Errorf("tam: duplicate job ID %s", j.ID)
		}
		seen[j.ID] = true
	}
	return nil
}
