package core

import (
	"context"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// DefaultWorkers is the evaluation concurrency used when a Planner (or
// an experiment grid) does not specify one: every available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// ForEach invokes fn(0..n-1), fanning the indices across at most workers
// goroutines. With workers <= 1 (or n <= 1) it degenerates to a plain
// sequential loop with no goroutine or allocation overhead. fn must be
// safe for concurrent use; callers make results deterministic by writing
// them into index i of a pre-sized slice and merging after ForEach
// returns. It is the fan-out primitive behind the parallel planner and
// the experiment grids.
func ForEach(n, workers int, fn func(i int)) { forEach(nil, n, workers, nil, fn) }

// ForEachCtx is ForEach with cooperative cancellation: once ctx is done
// no further index is dispatched (indices already running finish their
// fn call) and the context's error is returned. A nil ctx — and a ctx
// that never fires — makes it behave exactly like ForEach and return
// nil, so threading a context through a fan-out changes no result.
func ForEachCtx(ctx context.Context, n, workers int, fn func(i int)) error {
	forEach(ctx, n, workers, nil, fn)
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// forEach is the fan-out behind ForEach and the sweep grids: workers
// own workers — the calling goroutine plus workers-1 more — claim the
// indices in order. With a non-nil slots pool it is work-conserving:
// before each claim an own worker borrows every idle slot it can take
// (tryAcquire), starting one borrowed worker per slot while at least
// two indices are left, and a borrowed worker runs one index per
// borrowed slot (see fanout.borrower). With no idle slot, or a nil
// pool, it is the plain fan-out: workers <= 1 runs a sequential loop
// with no goroutine and no allocation.
func forEach(ctx context.Context, n, workers int, slots *Slots, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers > 1 {
		f := &fanout{ctx: ctx, n: n, slots: slots, fn: fn}
		f.run(workers)
		return
	}
	for i := 0; i < n; i++ {
		if ctx != nil && ctx.Err() != nil {
			return
		}
		if i < n-1 && slots.tryAcquire() {
			// A slot is idle: index i goes to a borrowed worker and this
			// goroutine carries on as the one own worker.
			f := &fanout{ctx: ctx, n: n, slots: slots, fn: fn}
			f.next.Store(int64(i + 1))
			f.wg.Add(1)
			go f.borrower(i)
			f.run(1)
			return
		}
		fn(i)
	}
}

// fanout is the shared state of one parallel forEach: the index
// counter its own and borrowed workers claim from, and the wait group
// of every goroutine it started.
type fanout struct {
	ctx   context.Context
	n     int
	slots *Slots
	fn    func(i int)
	next  atomic.Int64
	wg    sync.WaitGroup
}

// run works the remaining indices on the calling goroutine plus
// workers-1 more, and returns once every own and borrowed worker is
// done.
func (f *fanout) run(workers int) {
	f.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer f.wg.Done()
			f.own()
		}()
	}
	f.own()
	f.wg.Wait()
}

// claim returns the next undispatched index, or -1 once every index is
// dispatched or the context is done.
func (f *fanout) claim() int {
	if f.ctx != nil && f.ctx.Err() != nil {
		return -1
	}
	if i := int(f.next.Add(1)) - 1; i < f.n {
		return i
	}
	return -1
}

// own is one own worker: before each claim it lends every idle slot an
// index of its own, then runs the index it claimed itself.
func (f *fanout) own() {
	for {
		for f.n-int(f.next.Load()) > 1 && f.slots.tryAcquire() {
			i := f.claim()
			if i < 0 {
				f.slots.releaseBorrowed()
				break
			}
			f.wg.Add(1)
			go f.borrower(i)
		}
		i := f.claim()
		if i < 0 {
			return
		}
		f.fn(i)
	}
}

// borrower runs index i on a borrowed slot. It gives the slot back
// before it claims another index and claims one only if it can borrow
// again, so a request blocked in Slots.Acquire — which a freed slot
// goes to first — waits at most one index.
func (f *fanout) borrower(i int) {
	defer f.wg.Done()
	for {
		f.fn(i)
		f.slots.releaseBorrowed()
		if f.n-int(f.next.Load()) < 1 || !f.slots.tryAcquire() {
			return
		}
		if i = f.claim(); i < 0 {
			f.slots.releaseBorrowed()
			return
		}
	}
}

// Slots is a counting pool of worker slots — a server's bound on the
// requests planning at once — with two kinds of holder. A request takes
// a slot with Acquire, waiting its turn, and gives it back with
// Release. A sweep borrows an idle slot with tryAcquire, which never
// waits, runs one grid cell on it and gives it back with
// releaseBorrowed. A freed slot goes to the oldest blocked Acquire
// first, so tryAcquire never overtakes a waiting request: a queued
// request waits at most one grid cell for a borrowed slot. A nil *Slots
// has no idle slot to lend. All methods are safe for concurrent use.
type Slots struct {
	mu       sync.Mutex
	cap      int
	request  int             // slots held via Acquire
	borrowed int             // slots held via tryAcquire
	borrows  uint64          // successful tryAcquire calls
	waiters  []chan struct{} // blocked Acquire calls, oldest first
	spare    []chan struct{} // drained waiter channels, reused so waiting allocates nothing
}

// SlotStats is a snapshot of a Slots pool: the slots held by requests
// and by borrowing sweeps, and the lifetime count of borrows.
type SlotStats struct {
	Request  int
	Borrowed int
	Borrows  uint64
}

// NewSlots returns a pool of n slots (at least one).
func NewSlots(n int) *Slots { return &Slots{cap: max(n, 1)} }

// Cap is the number of slots.
func (p *Slots) Cap() int { return p.cap }

// Stats returns a consistent snapshot of the pool's counters.
func (p *Slots) Stats() SlotStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return SlotStats{Request: p.request, Borrowed: p.borrowed, Borrows: p.borrows}
}

// Acquire takes a slot for a request, waiting behind earlier callers
// while none is free. It fails with ctx's error, holding nothing, when
// ctx ends before a slot is handed over. Pair with Release.
func (p *Slots) Acquire(ctx context.Context) error {
	p.mu.Lock()
	// A slot freed while callers wait is handed straight to the oldest,
	// so a free slot implies no waiter.
	if p.request+p.borrowed < p.cap {
		p.request++
		p.mu.Unlock()
		return nil
	}
	var ready chan struct{}
	if n := len(p.spare); n > 0 {
		ready, p.spare = p.spare[n-1], p.spare[:n-1]
	} else {
		ready = make(chan struct{}, 1)
	}
	p.waiters = append(p.waiters, ready)
	p.mu.Unlock()
	select {
	case <-ready:
	case <-ctx.Done():
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.spare = append(p.spare, ready)
	if i := slices.Index(p.waiters, ready); i >= 0 {
		p.waiters = slices.Delete(p.waiters, i, i+1)
		return ctx.Err()
	}
	// Handed a slot, possibly just as ctx ended: keep it, and drain
	// the hand-off signal before the channel is reused.
	select {
	case <-ready:
	default:
	}
	return nil
}

// tryAcquire borrows an idle slot without waiting and reports whether
// it got one. It fails on a nil pool. Pair with releaseBorrowed.
func (p *Slots) tryAcquire() bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.request+p.borrowed >= p.cap {
		return false
	}
	p.borrowed++
	p.borrows++
	return true
}

// Release gives back a slot taken with Acquire.
func (p *Slots) Release() {
	p.mu.Lock()
	p.request--
	p.handOff()
	p.mu.Unlock()
}

// releaseBorrowed gives back a slot taken with tryAcquire.
func (p *Slots) releaseBorrowed() {
	p.mu.Lock()
	p.borrowed--
	p.handOff()
	p.mu.Unlock()
}

// handOff passes a just-freed slot to the oldest blocked Acquire, if
// any. Called under mu.
func (p *Slots) handOff() {
	if len(p.waiters) == 0 {
		return
	}
	p.waiters[0] <- struct{}{} // buffered: never blocks
	p.waiters = slices.Delete(p.waiters, 0, 1)
	p.request++
}

// SplitWorkers divides a CPU budget between an outer grid of n
// concurrent tasks and the parallelism available inside each task, so
// nested fan-outs (grid cells that each run a parallel planner) do not
// oversubscribe the machine: outer*inner never exceeds total. With more
// grid cells than budget the inner level runs sequentially.
func SplitWorkers(total, n int) (outer, inner int) {
	if total < 1 {
		total = 1
	}
	if n < 1 {
		n = 1
	}
	outer = total
	if outer > n {
		outer = n
	}
	inner = total / outer
	if inner < 1 {
		inner = 1
	}
	return outer, inner
}

// incumbent is an atomically shared upper bound on the best cost found
// so far, used to skip speculative evaluations whose preliminary cost
// already cannot win. It only ever decreases.
type incumbent struct {
	bits atomic.Uint64
}

func newIncumbent(v float64) *incumbent {
	inc := &incumbent{}
	inc.bits.Store(math.Float64bits(v))
	return inc
}

func (inc *incumbent) load() float64 {
	return math.Float64frombits(inc.bits.Load())
}

// lower tightens the bound to v if v is smaller.
func (inc *incumbent) lower(v float64) {
	for {
		old := inc.bits.Load()
		if v >= math.Float64frombits(old) {
			return
		}
		if inc.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}
