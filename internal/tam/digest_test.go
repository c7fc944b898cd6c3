package tam_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"mixsoc/internal/core"
	"mixsoc/internal/registry"
	"mixsoc/internal/socgen"
	"mixsoc/internal/tam"
)

// packScheduleDigest is the SHA-256 of every schedule the digest grid
// below produces, placements in slice order. Golden tables pin only
// makespans and costs; this pins the exact placements of both backends,
// cold and warm-started, so a packer speedup that claims the same
// search trajectory must reproduce it bit for bit.
const packScheduleDigest = "fe124cef1cf065007bf6be79f0ab9cb687110474e1143d55ce569eb210550aca"

// TestPackScheduleDigest hashes the placements of Optimize and
// PackRectangle over the five mixed-signal registry designs at
// W ∈ {16, 24, 32, 48, 64} (the first and last sharing candidate each)
// and 40 seeded socgen designs. Every job set is packed cold, warm from
// a narrower seed (W−8, adopted verbatim; skipped below the design's
// minimum TAM width) and warm from a wider seed (W+8, re-placed in seed
// order).
func TestPackScheduleDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("packs a few hundred schedules")
	}
	h := sha256.New()
	backends := []struct {
		name string
		pack func([]*tam.Job, int, ...tam.Option) (*tam.Schedule, error)
	}{
		{"occupancy", tam.Optimize},
		{"rectangle", tam.PackRectangle},
	}
	digestCase := func(d *core.Design, ci, w int) {
		t.Helper()
		cands := d.Candidates(nil)
		p := cands[ci%len(cands)]
		jobsAt := func(w int) []*tam.Job {
			jobs, err := core.BuildJobs(d, p, w)
			if err != nil {
				t.Fatalf("%s W=%d: %v", d.Name, w, err)
			}
			return jobs
		}
		jobs := jobsAt(w)
		for _, b := range backends {
			pack := func(w int, jobs []*tam.Job, opts ...tam.Option) *tam.Schedule {
				s, err := b.pack(jobs, w, opts...)
				if err != nil {
					t.Fatalf("%s %s W=%d: %v", b.name, d.Name, w, err)
				}
				return s
			}
			hashSchedule(h, pack(w, jobs))
			if nw := w - 8; nw >= core.MinTAMWidth(d) {
				narrow := pack(nw, jobsAt(nw))
				hashSchedule(h, pack(w, jobs, tam.WithWarmStart(narrow)))
			}
			wide := pack(w+8, jobsAt(w+8))
			hashSchedule(h, pack(w, jobs, tam.WithWarmStart(wide)))
		}
	}

	for _, name := range registry.Names() {
		d, err := registry.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Analog) == 0 {
			continue
		}
		for _, w := range []int{16, 24, 32, 48, 64} {
			digestCase(d, 0, w)
			digestCase(d, -1+len(d.Candidates(nil)), w)
		}
	}
	classes := []socgen.Class{socgen.Small, socgen.Medium, socgen.Large}
	widths := []int{16, 24, 32, 48, 64}
	for seed := int64(1); seed <= 40; seed++ {
		d, err := socgen.Generate(socgen.Options{Seed: seed, Class: classes[seed%3]})
		if err != nil {
			t.Fatal(err)
		}
		digestCase(d, int(seed), widths[seed%5])
	}

	if got := hex.EncodeToString(h.Sum(nil)); got != packScheduleDigest {
		t.Errorf("schedule digest = %s, want %s", got, packScheduleDigest)
	}
}

// hashSchedule feeds a schedule's width, makespan and every placement,
// in slice order, into h.
func hashSchedule(h hash.Hash, s *tam.Schedule) {
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(int64(s.Width))
	put(s.Makespan)
	put(int64(len(s.Placements)))
	for _, p := range s.Placements {
		h.Write([]byte(p.Job.ID))
		h.Write([]byte{0})
		put(int64(p.Width))
		put(p.Start)
		put(p.End)
		put(int64(p.WireLo))
	}
}
