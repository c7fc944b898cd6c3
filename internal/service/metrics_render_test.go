package service

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"mixsoc/internal/core"
	"mixsoc/internal/registry"
	"mixsoc/internal/tam"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics.golden from the current render")

// blockingPacker packs like the default backend once gate closes, and
// signals each pack it starts on packing, dropping the signal once the
// buffer is full.
type blockingPacker struct {
	gate    <-chan struct{}
	packing chan<- struct{}
}

func (blockingPacker) Name() string { return tam.BackendOccupancy }

func (b blockingPacker) Pack(jobs []*tam.Job, width int, opts ...tam.Option) (*tam.Schedule, error) {
	select {
	case b.packing <- struct{}{}:
	default:
	}
	<-b.gate
	return tam.OccupancyPacker{}.Pack(jobs, width, opts...)
}

// borrowSlot makes a one-worker sweep of two cells borrow one idle
// slot of slots: both cells block in their first pack, one on the
// sweep's own goroutine and one on the borrowed slot, until the
// returned release lets the sweep finish.
func borrowSlot(t *testing.T, slots *core.Slots) (release func()) {
	d, err := registry.Lookup("d695m")
	if err != nil {
		t.Fatal(err)
	}
	gate, packing := make(chan struct{}), make(chan struct{}, 2)
	done := make(chan error, 1)
	go func() {
		_, err := core.SweepWith(d, []int{32, 40}, []core.Weights{{Time: 0.5, Area: 0.5}}, core.SweepOptions{
			Workers:   1,
			Slots:     slots,
			Configure: func(pl *core.Planner) { pl.Packer = blockingPacker{gate, packing} },
		})
		done <- err
	}()
	<-packing
	<-packing
	return func() {
		close(gate)
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

// normalizeScrape sorts the sample lines within each family block (a
// # HELP line, its # TYPE line and the samples up to the next # HELP)
// and keeps the family order, so the comparison pins every line's
// bytes and the order of families but not the order of series within
// one family.
func normalizeScrape(page string) string {
	var out strings.Builder
	var samples []string
	flush := func() {
		sort.Strings(samples)
		for _, s := range samples {
			out.WriteString(s + "\n")
		}
		samples = samples[:0]
	}
	for _, line := range strings.Split(strings.TrimSuffix(page, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			if strings.HasPrefix(line, "# HELP ") {
				flush()
			}
			out.WriteString(line + "\n")
			continue
		}
		samples = append(samples, line)
	}
	flush()
	return out.String()
}

// The whole scrape page, pinned line for line: every family's header,
// every sample of a registry fed one fixed observation of each kind,
// the fixed label enumerations seeded at zero, and the fleet rules — a
// current member without attempts shows a zero ok shards series, a
// member removed before its first attempt shows none, and a server with
// neither fleet nor shard/transition history renders no fleet block.
func TestMetricsRenderGolden(t *testing.T) {
	const (
		wA = "http://worker-a:8093"
		wB = "http://worker-b:8093"
		wC = "http://worker-c:8093" // admitted, never attempted, then removed
	)
	slots := core.NewSlots(3)
	m := newMetricsRegistry(slots)
	em := core.EngineMetrics{
		Designs:            2,
		DesignHits:         7,
		DesignMisses:       2,
		Evictions:          1,
		Schedule:           core.CacheStats{Hits: 30, Misses: 9},
		ScheduleTotal:      core.CacheStats{Hits: 41, Misses: 12},
		Schedules:          9,
		ModuleStairs:       core.CacheStats{Hits: 77, Misses: 19},
		ModuleStairEntries: 19,
		DigitalJobs:        core.CacheStats{Hits: 5, Misses: 3},
		DigitalJobEntries:  3,
		Plans:              11,
		BackendPacks: map[string]core.BackendPackStats{
			tam.BackendOccupancy: {OK: 20, Errors: 1},
			tam.BackendRectangle: {OK: 4, Errors: 2},
		},
		TournamentWins: map[string]uint64{tam.BackendOccupancy: 3, tam.BackendRectangle: 1},
	}
	jobs := map[string]int{JobStateRunning: 1, JobStateDone: 2, JobStateFailed: 1}

	var pages strings.Builder
	page := func(title string, fleet []WorkerInfo) string {
		var b bytes.Buffer
		m.render(&b, em, fleet, jobs)
		parsePrometheus(t, b.String())
		pages.WriteString("## " + title + "\n" + normalizeScrape(b.String()))
		return b.String()
	}

	idle := page("idle standalone", nil)
	if strings.Contains(idle, "msoc_worker_") || strings.Contains(idle, "msoc_fleet_") {
		t.Error("idle standalone page renders the fleet block")
	}

	if err := slots.Acquire(t.Context()); err != nil {
		t.Fatal(err)
	}
	release := borrowSlot(t, slots)
	defer release()
	m.addInFlight(1)
	ms := time.Millisecond
	m.observeHTTP("/v1/plan", 200, 250*ms)
	m.observeHTTP("/v1/plan", 200, 500*ms)
	m.observeHTTP("/v1/plan", 400, 125*ms)
	m.observeHTTP("/v1/sweep", 200, 2*time.Second)
	m.observeHTTP("/v1/batch", 200, 375*ms)
	m.observeHTTP("/v1/batch", 503, 1500*ms)
	m.observeHTTP("/metrics", 200, 4*ms)
	m.batchItems.add(batchItemOK, 3)
	m.batchItems.add(batchItemDeduped, 1)
	m.batchItems.add(batchItemError, 2)
	m.panics.add("", 1)
	for result, n := range map[string]int{jobSubmitAccepted: 3, jobSubmitDeduped: 2, jobSubmitResumed: 1, jobSubmitRejected: 4} {
		for range n {
			m.jobSubmits.add(result, 1)
		}
	}
	for event, n := range map[string]int{jobShardCheckpointed: 5, jobShardRecovered: 2, jobShardInvalid: 1} {
		for range n {
			m.jobShards.add(event, 1)
		}
	}
	m.recoveries.add("", 1)
	m.jobDur.add(JobStateDone, 3)
	for _, w := range []string{wA, wB, wC} {
		m.transitions.add(pair[string]{WorkerHealthy, w}, 1)
	}
	m.transitions.add(pair[string]{WorkerSuspect, wB}, 1)
	m.observeShard(wA, shardResultOK, 750*ms)
	m.observeShard(wA, shardResultOK, 250*ms)
	m.observeShard(wA, shardResultTimeout, 2*time.Second)
	m.observeShard(wB, shardResultError, 125*ms)
	m.probes.add(pair[string]{shardResultOK, wA}, 1)
	m.probes.add(pair[string]{shardResultOK, wA}, 1)
	m.probes.add(pair[string]{shardResultError, wB}, 1)
	m.probes.add(pair[string]{shardResultOK, wC}, 1)

	fleet := []WorkerInfo{
		{URL: wB, State: WorkerSuspect, Capacity: 2},
		{URL: wA, State: WorkerHealthy, Capacity: 4},
		{URL: wC, State: WorkerHealthy, Capacity: 1},
	}
	busy := page("busy coordinator", fleet)
	cOK := `msoc_worker_shards_total{result="ok",worker="` + wC + `"}`
	if !strings.Contains(busy, cOK+" 0\n") {
		t.Errorf("current member without attempts lacks a zero series %s", cOK)
	}
	removed := page("after removing "+wC, fleet[:2])
	if strings.Contains(removed, `msoc_worker_shards_total{result="ok",worker="`+wC) ||
		strings.Contains(removed, `msoc_worker_shard_duration_seconds_count{worker="`+wC) {
		t.Errorf("a member removed before its first attempt keeps a shards series")
	}

	golden := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(pages.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := pages.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("scrape differs from %s at line %d:\n got %s\nwant %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("scrape has %d lines, %s has %d", len(gl), golden, len(wl))
	}
}

// The per-request bookkeeping instrument runs around every handler —
// the in-flight gauge up and down, then the request's count and
// latency — allocates nothing once the request's series exists.
func TestMetricsObserveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	m := newMetricsRegistry(core.NewSlots(1))
	m.observeHTTP("/v1/plan", 200, time.Millisecond)
	allocs := testing.AllocsPerRun(1000, func() {
		m.addInFlight(1)
		m.addInFlight(-1)
		m.observeHTTP("/v1/plan", 200, time.Millisecond)
	})
	if allocs != 0 {
		t.Errorf("per-request metrics bookkeeping = %v allocs, want 0", allocs)
	}
}
