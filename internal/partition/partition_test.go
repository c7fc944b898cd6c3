package partition

import (
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestBellNumbers(t *testing.T) {
	want := []int{1, 1, 2, 5, 15, 52, 203, 877}
	for n, w := range want {
		if got := Bell(n); got != w {
			t.Errorf("Bell(%d) = %d, want %d", n, got, w)
		}
	}
}

func TestAllCountsMatchBell(t *testing.T) {
	for n := 1; n <= 7; n++ {
		if got := len(All(n)); got != Bell(n) {
			t.Errorf("len(All(%d)) = %d, want Bell = %d", n, got, Bell(n))
		}
	}
}

func TestAllCanonicalAndComplete(t *testing.T) {
	for _, p := range All(4) {
		if p.N() != 4 {
			t.Fatalf("partition %v does not cover 4 items", p)
		}
		seen := map[int]bool{}
		for _, g := range p {
			if len(g) == 0 {
				t.Fatalf("empty group in %v", p)
			}
			for i := 1; i < len(g); i++ {
				if g[i] <= g[i-1] {
					t.Fatalf("group not ascending in %v", p)
				}
			}
			for _, it := range g {
				if seen[it] {
					t.Fatalf("item %d repeated in %v", it, p)
				}
				seen[it] = true
			}
		}
	}
}

// classesAB marks items 0 and 1 (cores A and B) as interchangeable.
var classesAB = []int{0, 0, 1, 2, 3}

func TestDedupFiveCoresWithIdenticalPair(t *testing.T) {
	parts := Dedup(All(5), classesAB)
	// 52 partitions of 5 items collapse to 36 when two items are
	// interchangeable: 1 no-share + 7 pairs + 9 two-pairs+single +
	// 7 triples + 7 triple+pair + 4 quads + 1 all-share. PaperPolicy
	// then drops the no-share and the 9 two-pairs+single, leaving 26.
	if len(parts) != 36 {
		t.Fatalf("dedup count = %d, want 36", len(parts))
	}
}

func TestPaperPolicyYields26(t *testing.T) {
	cands := Enumerate(5, classesAB, PaperPolicy)
	if len(cands) != 26 {
		t.Fatalf("paper candidate count = %d, want 26 (paper: NEval is always 26)", len(cands))
	}
	// Structure check: 7 pairs, 7 triples, 4 quads, 7 triple+pair, 1 all.
	byShape := map[string]int{}
	for _, p := range cands {
		shared := p.SharedGroups()
		switch {
		case len(shared) == 1 && len(shared[0]) == 2:
			byShape["pair"]++
		case len(shared) == 1 && len(shared[0]) == 3:
			byShape["triple"]++
		case len(shared) == 1 && len(shared[0]) == 4:
			byShape["quad"]++
		case len(shared) == 1 && len(shared[0]) == 5:
			byShape["all"]++
		case len(shared) == 2:
			byShape["triple+pair"]++
		default:
			t.Errorf("unexpected shape: %v", p)
		}
	}
	want := map[string]int{"pair": 7, "triple": 7, "quad": 4, "all": 1, "triple+pair": 7}
	for k, w := range want {
		if byShape[k] != w {
			t.Errorf("shape %s: %d, want %d (got %v)", k, byShape[k], w, byShape)
		}
	}
}

func TestPaperPolicyRules(t *testing.T) {
	cases := []struct {
		p    Partition
		want bool
	}{
		{Partition{{0}, {1}, {2}, {3}, {4}}, false},       // no sharing
		{Partition{{0, 1}, {2}, {3}, {4}}, true},          // one pair
		{Partition{{0, 1}, {2, 3}, {4}}, false},           // two pairs + singleton
		{Partition{{0, 1, 2}, {3, 4}}, true},              // triple+pair, no singleton
		{Partition{{0, 1, 2, 3}, {4}}, true},              // quad + singleton
		{Partition{{0, 1, 2, 3, 4}}, true},                // all share
		{Partition{{0, 1}, {2, 3}}, true},                 // 4 items, two pairs, no single
		{Partition{{0, 1}, {2, 4}, {3}}, false},           // two pairs + single
		{Partition{{0, 2}, {1, 3}, {4}}, false},           // two pairs + single
		{Partition{{0}, {1}, {2}, {3, 4}}, true},          // single pair late
		{Partition{{0, 1}, {2}, {3}, {4}, {5, 6}}, false}, // 7 items, 2 shared + singles
	}
	for _, tc := range cases {
		if got := PaperPolicy(tc.p); got != tc.want {
			t.Errorf("PaperPolicy(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestFormat(t *testing.T) {
	names := []string{"A", "B", "C", "D", "E"}
	p := Partition{{0, 1, 4}, {2, 3}}
	if got := p.FormatShared(names); got != "{A,B,E}{C,D}" {
		t.Errorf("FormatShared = %q", got)
	}
	q := Partition{{0, 2}, {1}, {3}, {4}}
	if got := q.FormatShared(names); got != "{A,C}" {
		t.Errorf("FormatShared = %q", got)
	}
	if got := q.Format(names); got != "{A,C}{B}{D}{E}" {
		t.Errorf("Format = %q", got)
	}
	none := Partition{{0}, {1}, {2}, {3}, {4}}
	if got := none.FormatShared(names); got != "{}" {
		t.Errorf("FormatShared(no share) = %q", got)
	}
}

func TestKeyEquivalence(t *testing.T) {
	// {A,C}{B}{D}{E} and {B,C}{A}{D}{E} are the same under A≡B.
	p := Partition{{0, 2}, {1}, {3}, {4}}
	q := Partition{{1, 2}, {0}, {3}, {4}}
	if p.Key(classesAB) != q.Key(classesAB) {
		t.Error("equivalent partitions have different keys")
	}
	if p.Key(nil) == q.Key(nil) {
		t.Error("distinct partitions share a key without classes")
	}
	// {A,C}{B,D} vs {A,D}{B,C} are equivalent under A≡B.
	r := Partition{{0, 2}, {1, 3}, {4}}
	s := Partition{{0, 3}, {1, 2}, {4}}
	if r.Key(classesAB) != s.Key(classesAB) {
		t.Error("pair-swap partitions have different keys")
	}
}

// keyReference is Key as first written: one string per group, the
// groups sorted as strings and joined.
func keyReference(p Partition, class []int) string {
	keys := make([]string, len(p))
	for i, g := range p {
		cs := make([]int, len(g))
		for j, it := range g {
			if class == nil {
				cs[j] = it
			} else {
				cs[j] = class[it]
			}
		}
		sort.Ints(cs)
		parts := make([]string, len(cs))
		for j, c := range cs {
			parts[j] = strconv.Itoa(c)
		}
		keys[i] = strings.Join(parts, ",")
	}
	sort.Strings(keys)
	return strings.Join(keys, "|")
}

// Key equals the reference rendering on every partition of up to 7
// items, without classes and under classes with multi-digit labels
// (whose string order differs from their numeric order), and on
// partitions with more groups and labels than Key's stack buffers hold.
func TestKeyMatchesReference(t *testing.T) {
	for n := 1; n <= 7; n++ {
		classes := [][]int{nil, make([]int, n), make([]int, n), make([]int, n)}
		for i := 0; i < n; i++ {
			classes[2][i] = i % 2
			classes[3][i] = []int{10, 2, 123, 9, 2, 45, 1000}[i]
		}
		for _, p := range All(n) {
			for _, class := range classes {
				if got, want := p.Key(class), keyReference(p, class); got != want {
					t.Fatalf("%v.Key(%v) = %q, want %q", p, class, got, want)
				}
			}
		}
	}
	wide := make(Partition, 40)
	for i := range wide {
		wide[i] = []int{39 - i}
	}
	big := Partition{make([]int, 40)}
	for i := range big[0] {
		big[0][i] = (i * 7) % 40
	}
	for _, p := range []Partition{wide, big} {
		if got, want := p.Key(nil), keyReference(p, nil); got != want {
			t.Errorf("Key = %q, want %q", got, want)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	p := Partition{{0, 1}, {2}}
	c := p.Clone()
	c[0][0] = 9
	if p[0][0] == 9 {
		t.Error("Clone shares group storage")
	}
}

func TestEnumerateNilPolicy(t *testing.T) {
	if got := len(Enumerate(5, classesAB, nil)); got != 36 {
		t.Errorf("Enumerate(nil policy) = %d, want 36", got)
	}
	if got := len(Enumerate(5, nil, AllowAllPolicy)); got != 52 {
		t.Errorf("Enumerate(no classes) = %d, want 52", got)
	}
}

// Property: dedup never increases the count and always keeps at least one
// representative per raw partition's key.
func TestDedupProperty(t *testing.T) {
	f := func(nRaw uint8, classSeed uint8) bool {
		n := int(nRaw%5) + 1
		class := make([]int, n)
		for i := range class {
			class[i] = int(classSeed>>uint(i)) % 2
		}
		raw := All(n)
		dd := Dedup(raw, class)
		if len(dd) > len(raw) {
			return false
		}
		keys := map[string]bool{}
		for _, p := range dd {
			k := p.Key(class)
			if keys[k] {
				return false // duplicate survived
			}
			keys[k] = true
		}
		for _, p := range raw {
			if !keys[p.Key(class)] {
				return false // lost an equivalence class
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkEnumerate5(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Enumerate(5, classesAB, PaperPolicy)
	}
}

func BenchmarkAll8(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		All(8)
	}
}
