package partition

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// reference is Enumerate without the memo: a fresh dedup(all(n), class)
// filtered by keep.
func reference(n int, class []int, keep Policy) []Partition {
	var out []Partition
	for _, p := range dedup(all(n), class) {
		if keep == nil || keep(p) {
			out = append(out, p)
		}
	}
	return out
}

var policies = []struct {
	name string
	keep Policy
}{
	{"nil", nil},
	{"paper", PaperPolicy},
	{"full", FullPolicy},
	{"allow-all", func(Partition) bool { return true }},
}

// classRelations lists the class vectors the oracle covers for n items:
// every canonical relation (one per partition of the items, numbered
// by first occurrence — the form analog.Classes returns), nil, and one
// relabelled vector with multi-digit, out-of-order labels.
func classRelations(n int) [][]int {
	var out [][]int
	for _, p := range all(n) {
		class := make([]int, n)
		for g, items := range p {
			for _, it := range items {
				class[it] = g
			}
		}
		out = append(out, class)
	}
	relabelled := []int{5, 12, 5, 40, 12, 3, 7}[:n]
	return append(out, nil, relabelled)
}

// Oracle: for every n ≤ memoMaxN and every class relation, the memoized
// Enumerate equals the unmemoized path under every policy — same
// partitions, same order — on the first call and on a memo hit.
func TestEnumerateMatchesUnmemoized(t *testing.T) {
	relations := 0
	for n := 1; n <= memoMaxN; n++ {
		for _, class := range classRelations(n) {
			relations++
			for _, pol := range policies {
				want := reference(n, class, pol.keep)
				for call := range 2 {
					if got := Enumerate(n, class, pol.keep); !reflect.DeepEqual(got, want) {
						t.Fatalf("n=%d class=%v policy=%s call %d: got %v, want %v", n, class, pol.name, call, got, want)
					}
				}
			}
		}
	}
	if want := 278 + 2*memoMaxN; relations != want {
		t.Fatalf("covered %d class relations, want %d (278 canonical plus nil and a relabelling per n)", relations, want)
	}
}

// Above memoMaxN Enumerate takes the unmemoized path and still agrees.
func TestEnumerateBeyondMemo(t *testing.T) {
	for _, class := range [][]int{nil, {0, 0, 1, 2, 3, 4, 5}, {0, 1, 0, 1, 0, 1, 2}} {
		for _, pol := range policies {
			if got, want := Enumerate(7, class, pol.keep), reference(7, class, pol.keep); !reflect.DeepEqual(got, want) {
				t.Fatalf("n=7 class=%v policy=%s: %d partitions, want %d", class, pol.name, len(got), len(want))
			}
		}
	}
}

// A result is the caller's own slice: appending to it, reslicing it to
// its capacity or overwriting its elements never shows in a later
// call.
func TestEnumerateResultIsCallersOwn(t *testing.T) {
	want := reference(5, classesAB, PaperPolicy)
	a := Enumerate(5, classesAB, PaperPolicy)
	if cap(a) != len(a) {
		t.Fatalf("cap %d, len %d: the capacity is not clipped", cap(a), len(a))
	}
	_ = append(a, Partition{{0, 1, 2, 3, 4}})
	a = a[:cap(a)]
	a[0] = Partition{{4}, {3}, {2}, {1}, {0}}
	if got := Enumerate(5, classesAB, PaperPolicy); !reflect.DeepEqual(got, want) {
		t.Fatalf("a mutated result leaked into the next call: got %v", got)
	}
}

// Concurrent first calls and hits agree with the unmemoized path (run
// under -race in CI).
func TestEnumerateConcurrent(t *testing.T) {
	memo.Lock()
	memo.m = map[memoKey][]Partition{} // so the goroutines race to fill it
	memo.Unlock()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 1; n <= memoMaxN; n++ {
				rels := classRelations(n)
				for i := range rels {
					class := rels[(i+g)%len(rels)]
					pol := policies[(i+g)%len(policies)]
					if got, want := Enumerate(n, class, pol.keep), reference(n, class, pol.keep); !reflect.DeepEqual(got, want) {
						errs <- fmt.Errorf("n=%d class=%v policy=%s: got %v, want %v", n, class, pol.name, got, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// A memo hit under PaperPolicy allocates at most the output slice.
func TestEnumerateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	Enumerate(5, classesAB, PaperPolicy) // fill the memo
	if got := testing.AllocsPerRun(100, func() { Enumerate(5, classesAB, PaperPolicy) }); got > 1 {
		t.Errorf("memo hit: %v allocs, want at most 1 (the output slice)", got)
	}
	p := Partition{{0, 1}, {2, 3}, {4}}
	if got := testing.AllocsPerRun(100, func() { PaperPolicy(p); FullPolicy(p) }); got != 0 {
		t.Errorf("policies: %v allocs, want 0", got)
	}
}
