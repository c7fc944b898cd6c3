package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mixsoc/internal/core"
	"mixsoc/internal/service"
)

// maxConcurrent is msoc-serve's default -max-concurrent, and maxDesigns
// the engine's design-session bound msoc-serve sets.
const (
	maxConcurrent = 4
	maxDesigns    = 8
)

// innerWorkers is each request slot's CPU share under msoc-serve's
// default split of all CPUs over -max-concurrent slots.
func innerWorkers() int {
	_, inner := core.SplitWorkers(core.DefaultWorkers(), maxConcurrent)
	return inner
}

// poolSlots is how many requests a default server plans at once:
// service.New caps MaxConcurrent at the CPU budget.
func poolSlots() int { return min(maxConcurrent, core.DefaultWorkers()) }

// newService builds the service exactly as msoc-serve does with default
// flags.
func newService() *service.Server {
	eng := core.NewEngine(core.EngineOptions{MaxDesigns: maxDesigns, Workers: innerWorkers()})
	return service.New(service.Options{
		Engine:                eng,
		MaxConcurrent:         maxConcurrent,
		RequestTimeout:        120 * time.Second,
		ShardTimeout:          60 * time.Second,
		RetryBackoff:          250 * time.Millisecond,
		ProbeInterval:         5 * time.Second,
		ProbeTimeout:          2 * time.Second,
		ProbeFailureThreshold: 3,
		ReadmitBackoff:        15 * time.Second,
	})
}

// liveServer is a service listening on a loopback port, plus the client
// that drives it. The client's transport allows at most maxClients
// connections, one per closed-loop client.
type liveServer struct {
	svc    *service.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
}

// maxClients bounds the closed-loop clients of any workload.
const maxClients = 2

func startServer() (*liveServer, error) {
	svc := newService()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	s := &liveServer{
		svc:  svc,
		hs:   &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     maxClients,
			MaxIdleConnsPerHost: maxClients,
			DisableCompression:  true,
		}},
		served: make(chan error, 1),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the HTTP server down, waits for its serve loop to return,
// and stops the service's background work.
func (s *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	s.client.CloseIdleConnections()
	s.svc.Close()
	return err
}

// post sends one request and reads the whole response into buf. The
// latency runs from just before the request is written until the last
// body byte is read.
func (s *liveServer) post(path string, body []byte, buf *bytes.Buffer) (status int, lat time.Duration, err error) {
	req, err := http.NewRequest(http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, time.Since(start), err
}

// serverTime scrapes GET /metrics for the endpoint's request-duration
// summary: total seconds and request count.
func (s *liveServer) serverTime(endpoint string) (sum, count float64, err error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	const family = "msoc_http_request_duration_seconds"
	label := fmt.Sprintf("{endpoint=%q} ", endpoint)
	found := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		for _, f := range []struct {
			suffix string
			v      *float64
		}{{"_sum", &sum}, {"_count", &count}} {
			if v, ok := strings.CutPrefix(line, family+f.suffix+label); ok {
				if *f.v, err = strconv.ParseFloat(v, 64); err != nil {
					return 0, 0, err
				}
				found++
			}
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	if found != 2 {
		return 0, 0, fmt.Errorf("/metrics has no %s summary for %s", family, endpoint)
	}
	return sum, count, nil
}

// loader sends a workload's request stream to the live server from its
// closed-loop clients and checks every answer as it arrives.
type loader struct {
	wl   *workload
	reqs *requests
	srv  *liveServer
	next atomic.Int64 // next request index of the stream

	// first holds plan-hot's first answer to each distinct body; every
	// later answer to the body must equal it byte for byte.
	first [][]byte
	// digests holds the cold workloads' response digests for the
	// indices the oracles and the traced phase revisit; a zero entry was
	// not served.
	digests [][32]byte

	attempted, failed atomic.Int64
	mu                sync.Mutex
	errs              []string // the first failures, for the report
}

func newLoader(wl *workload, reqs *requests, record int) *loader {
	ld := &loader{wl: wl, reqs: reqs}
	if reqs.fixed != nil {
		ld.first = make([][]byte, len(reqs.fixed))
	} else {
		ld.digests = make([][32]byte, record)
	}
	return ld
}

// fail counts one failed request or check.
func (ld *loader) fail(format string, args ...any) {
	ld.failed.Add(1)
	ld.mu.Lock()
	defer ld.mu.Unlock()
	if len(ld.errs) < 10 {
		ld.errs = append(ld.errs, fmt.Sprintf(format, args...))
	}
}

// do sends request i and checks the answer. It returns the latency and
// whether the request succeeded.
func (ld *loader) do(i int, buf *bytes.Buffer) (time.Duration, bool) {
	ld.attempted.Add(1)
	body, err := ld.reqs.body(i)
	if err != nil {
		ld.fail("request %d: %v", i, err)
		return 0, false
	}
	status, lat, err := ld.srv.post(ld.wl.path, body, buf)
	if err != nil {
		ld.fail("request %d: %v", i, err)
		return 0, false
	}
	if status != http.StatusOK {
		ld.fail("request %d: status %d: %.200s", i, status, buf.Bytes())
		return 0, false
	}
	ld.check(i, buf.Bytes())
	return lat, true
}

// check holds an answer to every earlier answer to the same body. Each
// plan-hot body is first answered in the fill pass and only read after;
// each cold index is sent by one goroutine at a time.
func (ld *loader) check(i int, resp []byte) {
	if ld.first != nil {
		k := ld.reqs.key(i)
		if ld.first[k] == nil {
			ld.first[k] = bytes.Clone(resp)
		} else if !bytes.Equal(resp, ld.first[k]) {
			ld.fail("request %d: answer differs from an earlier answer to the same body", i)
		}
		return
	}
	if i >= len(ld.digests) {
		return
	}
	sum := sha256.Sum256(resp)
	if ld.digests[i] != ([32]byte{}) && ld.digests[i] != sum {
		ld.fail("request %d: answer differs from an earlier answer to the same body", i)
	}
	ld.digests[i] = sum
}

// served returns the digest the rounds served for request i, if known.
func (ld *loader) served(i int) *[32]byte {
	if ld.first != nil {
		sum := sha256.Sum256(ld.first[ld.reqs.key(i)])
		return &sum
	}
	if i < len(ld.digests) && ld.digests[i] != ([32]byte{}) {
		return &ld.digests[i]
	}
	return nil
}

// fill is the cache-fill pass: requests 0..n-1 — every plan-hot body
// once, or the first requests of a cold stream. It sends one request at
// a time, so its duration is the sum of the fills and does not depend on
// the order the seed shuffled them into. The stream continues after it.
func (ld *loader) fill(n int) error {
	if !ld.serial(0, n) {
		return fmt.Errorf("%s: the cache-fill pass failed: %v", ld.wl.name, ld.errs)
	}
	return nil
}

// serial sends requests from..to-1 one at a time, and the stream
// continues after them. It reports whether they all succeeded.
func (ld *loader) serial(from, to int) bool {
	failed := ld.failed.Load()
	var buf bytes.Buffer
	for i := from; i < to; i++ {
		ld.do(i, &buf)
	}
	ld.next.Store(int64(max(from, to)))
	return ld.failed.Load() == failed
}

// roundStats is one closed-loop measurement interval.
type roundStats struct {
	Requests int           `json:"requests"` // succeeded
	Wall     time.Duration `json:"wall_ns"`
	CPU      time.Duration `json:"cpu_ns"`
	Alloc    uint64        `json:"alloc_bytes"`
	GCs      uint32        `json:"gcs"`
	P50      float64       `json:"p50_ms"`
	lats     []float64     // ms, ascending, one per successful request
}

// round runs the clients until dur has passed, each starting a new
// request only after its previous one completed, and waits for the
// requests in flight at the deadline.
func (ld *loader) round(dur time.Duration) roundStats {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(dur)
	lats := make([][]float64, ld.wl.clients)
	var wg sync.WaitGroup
	for c := range ld.wl.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				if lat, ok := ld.do(int(ld.next.Add(1)-1), &buf); ok {
					lats[c] = append(lats[c], float64(lat)/1e6)
				}
			}
		}()
	}
	wg.Wait()
	r := roundStats{Wall: time.Since(start), CPU: cpuTime() - cpu0}
	runtime.ReadMemStats(&m1)
	r.Alloc = m1.TotalAlloc - m0.TotalAlloc
	r.GCs = m1.NumGC - m0.NumGC
	for _, l := range lats {
		r.lats = append(r.lats, l...)
	}
	sort.Float64s(r.lats)
	r.Requests = len(r.lats)
	r.P50 = quantile(r.lats, 0.5)
	return r
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
