package tam

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"mixsoc/internal/wrapper"
)

// newOptionTable builds a fresh option table over jobs, as a pack's
// workspace loads one.
func newOptionTable(jobs []*Job, binWidth int, cfg config) optionTable {
	t := optionTable{idx: make(map[*Job]int32, len(jobs))}
	t.load(jobs, binWidth, cfg)
	return t
}

// newFitter builds a fresh fitter over an option table, as a pack's
// workspace loads one.
func newFitter(opts optionTable, binWidth int, cfg config) *fitter {
	f := new(fitter)
	f.load(opts, binWidth, cfg)
	return f
}

// fork returns a fitter sharing f's option table but owning a fresh
// board and scratch.
func (f *fitter) fork() *fitter { return newFitter(f.opts, f.binWidth, f.cfg) }

// ungrouped returns copies of the jobs without their serialization
// groups.
func ungrouped(jobs []*Job) []*Job {
	out := make([]*Job, len(jobs))
	for i, j := range jobs {
		out[i] = &Job{ID: j.ID, Options: j.Options}
	}
	return out
}

// backend is a packing backend with the cold and polish steps it hands
// to the shared pipeline.
type backend struct {
	pack   func([]*Job, int, ...Option) (*Schedule, error)
	cold   func(*workspace) (*Schedule, error)
	polish func(*Schedule, *fitter)
}

var (
	occupancy = backend{optimize, packOrderings, repackImprove}
	rectangle = backend{packRectangle, packDiagonal, improve}
)

// workspaceCase is one pack call of the workspace tests.
type workspaceCase struct {
	name  string
	b     backend
	jobs  []*Job
	width int
	opts  []Option
}

func (c workspaceCase) run() (*Schedule, error) { return c.b.pack(c.jobs, c.width, c.opts...) }

// workspaceCases interleaves both backends over job sets that differ in
// job count, width (one to four bitset words) and grouping, with the
// full staircase, warm seeds narrower and wider than the bin, invalid
// job sets and pre-cancelled contexts among them.
func workspaceCases(t testing.TB) []workspaceCase {
	t.Helper()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	p32, p64 := digitalJobs(t, 32), digitalJobs(t, 64)
	seed24, err := optimize(p32, 24)
	if err != nil {
		t.Fatal(err)
	}
	seed64, err := packRectangle(p32, 64)
	if err != nil {
		t.Fatal(err)
	}
	sets := []struct {
		name  string
		jobs  []*Job
		width int
	}{
		{"p93791/W32", p32, 32},
		{"p93791/W64", p64, 64},
		{"random/n5/W8", ungrouped(randomJobs(1, 5, 8)), 8},
		{"grouped/n25/W24", randomJobs(2, 25, 24), 24},
		{"random/n40/W100", ungrouped(randomJobs(3, 40, 100)), 100},
		{"grouped/n70/W200", randomJobs(4, 70, 200), 200},
	}
	backends := map[string]backend{"occupancy": occupancy, "rectangle": rectangle}
	var cases []workspaceCase
	for _, set := range sets {
		for _, name := range []string{"occupancy", "rectangle"} {
			cases = append(cases, workspaceCase{set.name + "/" + name, backends[name], set.jobs, set.width, nil})
		}
	}
	dup := []*Job{fixedJob("a", 1, 10), fixedJob("b", 2, 5), fixedJob("a", 1, 5)}
	for _, name := range []string{"occupancy", "rectangle"} {
		b := backends[name]
		cases = append(cases,
			workspaceCase{"p93791/W32/full/" + name, b, p32, 32, []Option{WithFullStaircase()}},
			workspaceCase{"p93791/W32/narrower-seed/" + name, b, p32, 32, []Option{WithWarmStart(seed24)}},
			workspaceCase{"p93791/W32/wider-seed/" + name, b, p32, 32, []Option{WithWarmStart(seed64)}},
			workspaceCase{"grouped/n70/W200/cancelled/" + name, b, sets[5].jobs, 200, []Option{WithContext(cancelled)}},
			workspaceCase{"p93791/W64/cancelled/" + name, b, p64, 64, []Option{WithContext(cancelled)}},
			workspaceCase{"duplicate-ids/" + name, b, dup, 8, nil},
		)
	}
	return cases
}

type packResult struct {
	s   *Schedule
	err error
}

// Pooled workspaces must never leak one pack into another: many
// goroutines packing interleaved job sets through both backends get, for
// every call, exactly what the same call returned when run alone. The
// results are compared only after every goroutine is done, so a
// returned schedule that aliased pooled scratch would show the later
// packs' writes.
func TestWorkspaceIsolation(t *testing.T) {
	cases := workspaceCases(t)
	want := make([]packResult, len(cases))
	for i, c := range cases {
		want[i].s, want[i].err = c.run()
	}

	const goroutines, rounds = 8, 3
	got := make([][]packResult, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		got[g] = make([]packResult, rounds*len(cases))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range got[g] {
				// Each goroutine walks the cases from its own offset and,
				// on odd goroutines, backwards.
				i := (g*5 + k) % len(cases)
				if g%2 == 1 {
					i = len(cases) - 1 - i
				}
				s, err := cases[i].run()
				got[g][k] = packResult{s, err}
			}
		}()
	}
	wg.Wait()

	for g := range got {
		for k, r := range got[g] {
			i := (g*5 + k) % len(cases)
			if g%2 == 1 {
				i = len(cases) - 1 - i
			}
			w := want[i]
			if fmt.Sprint(r.err) != fmt.Sprint(w.err) || !reflect.DeepEqual(r.s, w.s) {
				t.Fatalf("goroutine %d, call %d (%s): got %v, %v; alone it returned %v, %v",
					g, k, cases[i].name, r.s, r.err, w.s, w.err)
			}
		}
	}
	for i, c := range cases {
		if w := want[i]; w.err == nil && w.s.Validate() != nil {
			t.Errorf("%s: invalid schedule", c.name)
		}
	}
}

// A released workspace holds nothing of its last pack's caller: no job,
// staircase, placement, context or seed reference, not even in the
// spare capacity of its buffers, whichever path the pack took.
func TestWorkspaceScrubDropsCallerData(t *testing.T) {
	ws := new(workspace)
	for _, c := range workspaceCases(t) {
		// Failed and cancelled packs must scrub as well: every result
		// is ignored.
		_, _ = ws.pack(c.jobs, c.width, c.opts, c.b.cold, c.b.polish)
		ws.scrub()
		if refs := callerRefs(reflect.ValueOf(ws).Elem(), "ws", nil); len(refs) > 0 {
			t.Fatalf("after %s the scrubbed workspace still holds %v", c.name, refs)
		}
	}
	if cap(ws.lane[2].order) == 0 || cap(ws.opts.jobs) == 0 || cap(ws.fit[1].starts) == 0 {
		t.Fatal("the packs left no buffers in the workspace; the check tests nothing")
	}
}

// callerRefs appends to out the path of every reference under v that
// could keep a caller's data alive: a non-nil pointer, interface,
// channel or func, a non-empty map, or a non-nil staircase slice,
// looking through the full capacity of every other slice.
func callerRefs(v reflect.Value, path string, out []string) []string {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface, reflect.Chan, reflect.Func, reflect.UnsafePointer:
		if !v.IsNil() {
			out = append(out, path)
		}
	case reflect.Map:
		if v.Len() > 0 {
			out = append(out, path)
		}
	case reflect.Slice:
		if v.Type() == reflect.TypeFor[[]wrapper.Point]() {
			if !v.IsNil() {
				out = append(out, path)
			}
			break
		}
		v = v.Slice(0, v.Cap())
		fallthrough
	case reflect.Array:
		for i := range v.Len() {
			out = callerRefs(v.Index(i), fmt.Sprintf("%s[%d]", path, i), out)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			out = callerRefs(v.Field(i), path+"."+v.Type().Field(i).Name, out)
		}
	}
	return out
}

// A context cancelled while a pack runs stops it with context.Canceled,
// and a nil context never cancels. Cancellation races the pack, so the
// job set doubles until a pack outlasts the cancel.
func TestPackCancelledMidway(t *testing.T) {
	for _, b := range []backend{occupancy, rectangle} {
		cancelledOne := false
		for n := 400; n <= 6400 && !cancelledOne; n *= 2 {
			jobs := randomJobs(int64(n), n, 200)
			ctx, cancel := context.WithCancel(context.Background())
			timer := time.AfterFunc(time.Millisecond, cancel)
			s, err := b.pack(jobs, 200, WithContext(ctx))
			timer.Stop()
			cancel()
			switch {
			case errors.Is(err, context.Canceled):
				cancelledOne = s == nil
			case err != nil:
				t.Fatalf("n=%d: %v", n, err)
			}
		}
		if !cancelledOne {
			t.Error("no pack was cancelled midway")
		}

		jobs := digitalJobs(t, 32)
		want, err := b.pack(jobs, 32)
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.pack(jobs, 32, WithContext(nil))
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("nil context: got %v, %v; want the uncancelled schedule", got, err)
		}
	}
}
