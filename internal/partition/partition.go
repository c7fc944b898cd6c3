// Package partition enumerates the wrapper-sharing configurations of
// Section 3 of the paper: set partitions of the analog cores, where each
// group of a partition shares one analog test wrapper.
//
// Two refinements match the paper's experimental setup:
//
//   - Cores with identical test sets (cores A and B of Table 2) are
//     interchangeable; partitions that differ only by swapping them are
//     deduplicated ("Since Core A and Core B have identical tests, only
//     unique combinations for Core A are presented").
//   - The paper's candidate set contains exactly 26 combinations for the
//     five cores: all deduplicated partitions except the no-sharing
//     partition and except partitions with two shared groups plus a
//     singleton. PaperPolicy encodes that rule; FullPolicy keeps every
//     partition with at least one shared group.
package partition

import (
	"bytes"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Partition is a partition of items 0..n-1 into disjoint groups. Groups
// are canonically ordered: items ascending within a group, groups by
// their smallest item.
type Partition [][]int

// N returns the number of items partitioned.
func (p Partition) N() int {
	n := 0
	for _, g := range p {
		n += len(g)
	}
	return n
}

// sharedGroups returns the groups with two or more members (the groups
// that actually share a wrapper).
func (p Partition) sharedGroups() [][]int {
	var out [][]int
	for _, g := range p {
		if len(g) >= 2 {
			out = append(out, g)
		}
	}
	return out
}

// Wrappers returns the number of groups, i.e. analog wrappers used.
func (p Partition) Wrappers() int { return len(p) }

// Format renders the partition with the given item names, shared groups
// first, e.g. "{A,B}{C,D}" or "{A,C} singles:B,D,E" is avoided: all
// groups are shown: "{A,B}{C,D}{E}".
func (p Partition) Format(names []string) string {
	var sb strings.Builder
	for _, g := range p.ordered() {
		sb.WriteByte('{')
		for i, it := range g {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(names[it])
		}
		sb.WriteByte('}')
	}
	return sb.String()
}

// FormatShared renders only the shared groups, the notation Tables 1, 3
// and 4 of the paper use (singletons are implicit), e.g. "{A,B,E}{C,D}".
// The no-sharing partition renders as "{}".
func (p Partition) FormatShared(names []string) string {
	shared := p.sharedGroups()
	if len(shared) == 0 {
		return "{}"
	}
	var sb strings.Builder
	for _, g := range orderGroups(shared) {
		sb.WriteByte('{')
		for i, it := range g {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(names[it])
		}
		sb.WriteByte('}')
	}
	return sb.String()
}

// ordered returns groups sorted: larger groups first, then by first item.
func (p Partition) ordered() [][]int { return orderGroups(p) }

func orderGroups(groups [][]int) [][]int {
	out := make([][]int, len(groups))
	copy(out, groups)
	sort.Slice(out, func(a, b int) bool {
		if len(out[a]) != len(out[b]) {
			return len(out[a]) > len(out[b])
		}
		return out[a][0] < out[b][0]
	})
	return out
}

// Clone returns a deep copy.
func (p Partition) Clone() Partition {
	c := make(Partition, len(p))
	for i, g := range p {
		c[i] = append([]int(nil), g...)
	}
	return c
}

// all enumerates every set partition of n items (the Bell number
// B(n) of them) via
// restricted growth strings. Groups and items are in canonical order.
func all(n int) []Partition {
	if n <= 0 {
		return nil
	}
	var out []Partition
	rgs := make([]int, n)
	var rec func(i, maxUsed int)
	rec = func(i, maxUsed int) {
		if i == n {
			out = append(out, fromRGS(rgs))
			return
		}
		for b := 0; b <= maxUsed+1; b++ {
			rgs[i] = b
			next := maxUsed
			if b > maxUsed {
				next = b
			}
			rec(i+1, next)
		}
	}
	rgs[0] = 0
	rec(1, 0)
	return out
}

func fromRGS(rgs []int) Partition {
	nGroups := 0
	for _, b := range rgs {
		if b+1 > nGroups {
			nGroups = b + 1
		}
	}
	p := make(Partition, nGroups)
	for item, b := range rgs {
		p[b] = append(p[b], item)
	}
	return p
}

// Key returns a canonical string for the partition under the given item
// equivalence classes: two partitions have equal keys iff one can be
// turned into the other by permuting items within a class. class[i] is
// the equivalence class of item i; pass nil for all-distinct items.
func (p Partition) Key(class []int) string {
	// Each group's sorted labels are rendered into one buffer, then the
	// groups' spans of it are ordered by their text and joined. For the
	// small partitions the planner keys, the buffers stay on the stack.
	var (
		bufArr   [64]byte
		spanArr  [16][2]int
		labelArr [16]int
	)
	buf, spans := bufArr[:0], spanArr[:0]
	for _, g := range p {
		labels := labelArr[:0]
		for _, it := range g {
			if class != nil {
				it = class[it]
			}
			labels = append(labels, it)
		}
		slices.Sort(labels)
		lo := len(buf)
		for j, c := range labels {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, int64(c), 10)
		}
		spans = append(spans, [2]int{lo, len(buf)})
	}
	slices.SortFunc(spans, func(a, b [2]int) int {
		return bytes.Compare(buf[a[0]:a[1]], buf[b[0]:b[1]])
	})
	var sb strings.Builder
	sb.Grow(len(buf) + len(spans))
	for i, sp := range spans {
		if i > 0 {
			sb.WriteByte('|')
		}
		sb.Write(buf[sp[0]:sp[1]])
	}
	return sb.String()
}

// dedup removes partitions that are equivalent under the item classes,
// keeping the first representative of each equivalence class and the
// input order otherwise.
func dedup(parts []Partition, class []int) []Partition {
	seen := make(map[string]bool, len(parts))
	var out []Partition
	for _, p := range parts {
		k := p.Key(class)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, p)
	}
	return out
}

// Policy decides whether a sharing configuration is a candidate.
type Policy func(Partition) bool

// FullPolicy keeps every partition that shares at least one wrapper.
func FullPolicy(p Partition) bool {
	for _, g := range p {
		if len(g) >= 2 {
			return true
		}
	}
	return false
}

// PaperPolicy reproduces the paper's 26-combination candidate set for
// five cores: at least one shared group, and not(two or more shared
// groups together with a leftover singleton). See the package comment.
func PaperPolicy(p Partition) bool {
	shared, singles := 0, 0
	for _, g := range p {
		switch {
		case len(g) >= 2:
			shared++
		case len(g) == 1:
			singles++
		}
	}
	return shared == 1 || (shared >= 2 && singles == 0)
}

// Enumerate lists the candidate partitions of n items: all partitions,
// deduplicated under class, filtered by keep (nil keeps everything).
// The order is all's, first representative of each class kept.
//
// The returned slice is the caller's own (appending to it or reslicing
// it never shows in another call's result), but the Partitions in it
// are shared across calls and must be treated as read-only: for
// n ≤ memoMaxN the deduplicated list is computed once per (n, class
// relation) and every later call filters that memoized list.
func Enumerate(n int, class []int, keep Policy) []Partition {
	parts := dedupAll(n, class)
	out := make([]Partition, 0, len(parts))
	for _, p := range parts {
		if keep == nil || keep(p) {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out[:len(out):len(out)]
}

// memoMaxN is the largest item count whose deduplicated partitions are
// memoized. Keyed by the canonical class relation there are at most
// 1+2+5+15+52+203 = 278 entries (Bell(1)+…+Bell(6)), which bounds the
// memo without eviction.
const memoMaxN = 6

// memoKey is a canonical class relation: n and the classes in
// first-occurrence numbering (0 for the first item, each new class the
// next unused number).
type memoKey struct {
	n     int
	class [memoMaxN]int8
}

var memo = struct {
	sync.Mutex
	m map[memoKey][]Partition
}{m: map[memoKey][]Partition{}}

// dedupAll returns dedup(all(n), class), memoized for n ≤ memoMaxN.
// Relabelling the classes does not change which partitions dedup
// keeps, so the memo is keyed by the canonical relation and computes
// with it.
func dedupAll(n int, class []int) []Partition {
	if n < 1 || n > memoMaxN || (class != nil && len(class) != n) {
		return dedup(all(n), class)
	}
	key, next := memoKey{n: n}, int8(0)
	for i := range n {
		key.class[i] = next
		for j := range i {
			if class != nil && class[j] == class[i] {
				key.class[i] = key.class[j]
				break
			}
		}
		if key.class[i] == next {
			next++
		}
	}
	memo.Lock()
	parts, ok := memo.m[key]
	memo.Unlock()
	if ok {
		return parts
	}
	canon := make([]int, n)
	for i := range canon {
		canon[i] = int(key.class[i])
	}
	parts = dedup(all(n), canon)
	memo.Lock()
	defer memo.Unlock()
	if prev, ok := memo.m[key]; ok {
		return prev
	}
	memo.m[key] = parts
	return parts
}
