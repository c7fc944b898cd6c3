package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSplitWorkersEdges pins the budget-splitting contract at its
// corners: outer*inner never exceeds the total budget, both levels are
// at least 1, and degenerate budgets (0, negative, 1) and degenerate
// grids (0 cells, more cells than budget) stay sane.
func TestSplitWorkersEdges(t *testing.T) {
	cases := []struct {
		total, n             int
		wantOuter, wantInner int
	}{
		{0, 5, 1, 1},  // zero CPU budget degrades to sequential
		{-3, 5, 1, 1}, // negative budget likewise
		{1, 5, 1, 1},  // one CPU: no parallelism anywhere
		{1, 0, 1, 1},  // one CPU, empty grid
		{8, 0, 1, 8},  // empty grid: all budget to the (vacuous) inner level
		{8, 1, 1, 8},  // one cell: all budget inside it
		{8, 4, 4, 2},  // even split
		{8, 3, 3, 2},  // uneven: inner gets the floor, never oversubscribes
		{4, 16, 4, 1}, // more cells than budget: inner sequential
		{3, 2, 2, 1},  // budget not divisible by outer
	}
	for _, c := range cases {
		outer, inner := SplitWorkers(c.total, c.n)
		if outer != c.wantOuter || inner != c.wantInner {
			t.Errorf("SplitWorkers(%d, %d) = (%d, %d), want (%d, %d)",
				c.total, c.n, outer, inner, c.wantOuter, c.wantInner)
		}
		if outer < 1 || inner < 1 {
			t.Errorf("SplitWorkers(%d, %d) = (%d, %d): a level below 1", c.total, c.n, outer, inner)
		}
		if budget := max(c.total, 1); outer*inner > budget {
			t.Errorf("SplitWorkers(%d, %d) = (%d, %d): oversubscribes %d CPUs", c.total, c.n, outer, inner, budget)
		}
	}
}

// TestForEachEdges covers the fan-out primitive where it degenerates:
// zero items, one item, non-positive worker counts, and more workers
// than items must all invoke fn exactly once per index — without a
// pool, and with pools of every size and occupancy, after which every
// borrowed slot must be back and a saturated pool never borrowed from.
func TestForEachEdges(t *testing.T) {
	type pool struct{ size, held int }
	pools := []pool{{0, 0}} // size 0: no pool
	for _, size := range []int{1, 2, 4} {
		for held := 0; held <= size; held++ {
			pools = append(pools, pool{size, held})
		}
	}
	for _, pl := range pools {
		for _, workers := range []int{-1, 0, 1, 2, 7} {
			for _, n := range []int{0, 1, 2, 3, 8, 40} {
				var p *Slots
				if pl.size > 0 {
					p = NewSlots(pl.size)
					for i := 0; i < pl.held; i++ {
						if err := p.Acquire(context.Background()); err != nil {
							t.Fatal(err)
						}
					}
				}
				var calls atomic.Int64
				seen := make([]atomic.Bool, max(n, 1))
				forEach(nil, n, workers, p, func(i int) {
					calls.Add(1)
					if seen[i].Swap(true) {
						t.Errorf("pool=%v workers=%d n=%d: index %d visited twice", pl, workers, n, i)
					}
					runtime.Gosched()
				})
				if int(calls.Load()) != n {
					t.Errorf("pool=%v workers=%d n=%d: fn called %d times", pl, workers, n, calls.Load())
				}
				if p == nil {
					continue
				}
				if st := p.Stats(); st.Request != pl.held || st.Borrowed != 0 {
					t.Errorf("pool=%v workers=%d n=%d: %+v after the fan-out", pl, workers, n, st)
				} else if pl.held == pl.size && st.Borrows != 0 {
					t.Errorf("pool=%v: borrowed %d slots from a saturated pool", pl, st.Borrows)
				}
			}
		}
	}
}

// waiting reports how many Acquire calls are blocked on p.
func (p *Slots) waiting() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.waiters)
}

// waitBlocked spins until n Acquire calls are blocked on p.
func waitBlocked(t *testing.T, p *Slots, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for p.waiting() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d Acquire calls never blocked (have %d)", n, p.waiting())
		}
		runtime.Gosched()
	}
}

// A freed slot goes to the oldest blocked Acquire, never to a
// TryAcquire that races it, and a cancelled Acquire leaves holding
// nothing.
func TestSlotsReleaseHandsOffToBlockedAcquire(t *testing.T) {
	p := NewSlots(1)
	if err := p.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- p.Acquire(context.Background()) }()
	waitBlocked(t, p, 1)
	if p.TryAcquire() {
		t.Fatal("TryAcquire borrowed from a saturated pool")
	}
	p.Release()
	if p.TryAcquire() {
		t.Fatal("TryAcquire overtook a blocked Acquire after Release")
	}
	if err := <-got; err != nil {
		t.Fatalf("blocked Acquire: %v", err)
	}
	if st := p.Stats(); st.Request != 1 || st.Borrowed != 0 || st.Borrows != 0 {
		t.Fatalf("after hand-off: %+v, want one request slot and no borrows", st)
	}

	// A borrowed slot hands off the same way.
	p.Release()
	if !p.TryAcquire() {
		t.Fatal("TryAcquire failed on an idle pool")
	}
	go func() { got <- p.Acquire(context.Background()) }()
	waitBlocked(t, p, 1)
	p.ReleaseBorrowed()
	if p.TryAcquire() {
		t.Fatal("TryAcquire overtook a blocked Acquire after ReleaseBorrowed")
	}
	if err := <-got; err != nil {
		t.Fatalf("blocked Acquire: %v", err)
	}

	// A waiter whose context ends gives up its place and holds nothing.
	ctx, cancel := context.WithCancel(context.Background())
	go func() { got <- p.Acquire(ctx) }()
	waitBlocked(t, p, 1)
	cancel()
	if err := <-got; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Acquire: err %v, want context.Canceled", err)
	}
	p.Release()
	if st := p.Stats(); st.Request != 0 || st.Borrowed != 0 || p.waiting() != 0 {
		t.Fatalf("drained pool: %+v, %d waiting", st, p.waiting())
	}
}

// A sweep's borrowed cell is the longest a queued request waits: once
// the borrowed cell ends its slot goes to the blocked Acquire, and the
// fan-out finishes on its own worker without borrowing again.
func TestForEachBorrowerYieldsToQueuedRequest(t *testing.T) {
	p := NewSlots(2)
	if err := p.Acquire(context.Background()); err != nil { // the sweep's own slot
		t.Fatal(err)
	}
	const n = 4
	started := make(chan int, n)
	gates := make([]chan struct{}, n)
	for i := range gates {
		gates[i] = make(chan struct{})
	}
	var runs [n]atomic.Int32
	done := make(chan struct{})
	go func() {
		defer close(done)
		forEach(nil, n, 1, p, func(i int) {
			runs[i].Add(1)
			started <- i
			<-gates[i]
		})
	}()
	// The idle slot is borrowed for cell 0; the own worker takes cell 1.
	first := map[int]bool{<-started: true, <-started: true}
	if !first[0] || !first[1] {
		t.Fatalf("first cells %v, want 0 and 1", first)
	}
	if st := p.Stats(); st.Borrowed != 1 || st.Borrows != 1 {
		t.Fatalf("while borrowing: %+v, want one borrowed slot", st)
	}

	acquired := make(chan error, 1)
	go func() { acquired <- p.Acquire(context.Background()) }()
	waitBlocked(t, p, 1)
	close(gates[0]) // the borrowed cell ends
	if err := <-acquired; err != nil {
		t.Fatalf("queued Acquire: %v", err)
	}
	for i := 1; i < n; i++ {
		close(gates[i])
		if i+1 < n {
			if got := <-started; got != i+1 {
				t.Fatalf("cell %d started after cell %d, want %d", got, i, i+1)
			}
		}
	}
	<-done
	for i := range runs {
		if got := runs[i].Load(); got != 1 {
			t.Errorf("cell %d ran %d times", i, got)
		}
	}
	if st := p.Stats(); st.Request != 2 || st.Borrowed != 0 || st.Borrows != 1 {
		t.Fatalf("after the fan-out: %+v, want both slots held by requests and one borrow", st)
	}
}

// Under a hammer of blocking requests, cancelled requests, bare
// borrows and borrowing fan-outs, the slots held never exceed the
// pool's capacity — by the holders' own count and by Stats — and
// everything is given back at the end. Run it under -race.
func TestSlotsHammerNeverOversubscribes(t *testing.T) {
	const size = 3
	p := NewSlots(size)
	var held atomic.Int32
	hold := func() {
		if h := held.Add(1); h > size {
			t.Errorf("%d slots held, capacity %d", h, size)
		}
		if st := p.Stats(); st.Request+st.Borrowed > size {
			t.Errorf("Stats %+v exceeds capacity", st)
		}
		runtime.Gosched()
		held.Add(-1)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch (g + i) % 4 {
				case 0:
					if err := p.Acquire(context.Background()); err != nil {
						t.Error(err)
						return
					}
					hold()
					p.Release()
				case 1:
					ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%3)*time.Microsecond)
					if p.Acquire(ctx) == nil {
						hold()
						p.Release()
					}
					cancel()
				case 2:
					if p.TryAcquire() {
						hold()
						p.ReleaseBorrowed()
					}
				case 3:
					if err := p.Acquire(context.Background()); err != nil {
						t.Error(err)
						return
					}
					// Each running cell holds one slot: the own worker
					// the request's, a borrower its borrowed one.
					forEach(nil, 6, 1, p, func(int) { hold() })
					p.Release()
				}
			}
		}()
	}
	wg.Wait()
	st := p.Stats()
	if st.Request != 0 || st.Borrowed != 0 || p.waiting() != 0 {
		t.Fatalf("after the hammer: %+v, %d waiting", st, p.waiting())
	}
	if st.Borrows == 0 {
		t.Error("the hammer never borrowed a slot")
	}
}

// With no idle slot the borrowing fan-out is the plain one: the
// sequential path still allocates nothing, and the parallel path
// allocates exactly what it does without a pool. CI's allocation-pin
// step runs this test.
func TestForEachSaturatedPoolAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	full := NewSlots(2)
	for i := 0; i < full.Cap(); i++ {
		if err := full.Acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	fn := func(int) {}
	for _, workers := range []int{1, 3} {
		plain := testing.AllocsPerRun(100, func() { forEach(nil, 16, workers, nil, fn) })
		saturated := testing.AllocsPerRun(100, func() { forEach(nil, 16, workers, full, fn) })
		if saturated != plain {
			t.Errorf("workers=%d: %v allocs with a saturated pool, %v without one", workers, saturated, plain)
		}
		if workers == 1 && saturated != 0 {
			t.Errorf("sequential fan-out allocates %v times per call, want 0", saturated)
		}
	}
	if st := full.Stats(); st.Borrows != 0 {
		t.Fatalf("borrowed %d slots from a saturated pool", st.Borrows)
	}
}

// A request that waits for a slot allocates nothing once the pool has
// recycled a waiter channel: batch items queue on every call, so a
// per-wait allocation would show in their allocations per request.
func TestSlotsWaitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	p := NewSlots(1)
	ctx := context.Background()
	if err := p.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	next := make(chan struct{})
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { // releases the slot once the next Acquire is queued
		defer close(done)
		for {
			select {
			case <-next:
			case <-stop:
				return
			}
			for p.waiting() == 0 {
				runtime.Gosched()
			}
			p.Release()
		}
	}()
	got := testing.AllocsPerRun(100, func() {
		next <- struct{}{}
		if err := p.Acquire(ctx); err != nil {
			t.Fatal(err)
		}
	})
	close(stop)
	<-done
	if got != 0 {
		t.Errorf("a queued Acquire allocates %v times, want 0", got)
	}
}
