package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"gaussiancube/internal/gc"
)

func get(t *testing.T, h http.Handler, url string) (int, string) {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", url, nil))
	return w.Code, strings.TrimSpace(w.Body.String())
}

func post(t *testing.T, h http.Handler, url, body string) (int, string) {
	t.Helper()
	w := httptest.NewRecorder()
	req := httptest.NewRequest("POST", url, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(w, req)
	return w.Code, strings.TrimSpace(w.Body.String())
}

// TestRouteGoldenJSON pins the exact /route wire format. These bodies
// are the compatibility contract of the endpoint: new fields may be
// added, but the ones here must keep their names, order and values.
func TestRouteGoldenJSON(t *testing.T) {
	cube := gc.New(6, 2)
	s := mustServer(t, Config{Cube: cube, Shards: 2, CacheCapacity: -1})
	h := NewHandler(s)

	golden := []struct {
		method, url, body string
		status            int
		want              string
	}{
		{"GET", "/route?src=3&dst=60", "", 200,
			`{"src":3,"dst":60,"outcome":"delivered","path":[3,11,10,14,15,13,45,44,60],"hops":8,"epoch":0}`},
		{"GET", "/route?src=9&dst=9", "", 200,
			`{"src":9,"dst":9,"outcome":"delivered","path":[9],"hops":0,"epoch":0}`},
		{"POST", "/route", `{"src":9,"dst":9}`, 200,
			`{"src":9,"dst":9,"outcome":"delivered","path":[9],"hops":0,"epoch":0}`},
		{"GET", "/route?src=3&dst=999", "", 400,
			`{"error":"serve: node out of range for GC(6,2^2)"}`},
		{"GET", "/route?src=zap&dst=1", "", 400,
			`{"error":"bad src \"zap\": strconv.ParseUint: parsing \"zap\": invalid syntax"}`},
	}
	for _, g := range golden {
		var code int
		var body string
		if g.method == "GET" {
			code, body = get(t, h, g.url)
		} else {
			code, body = post(t, h, g.url, g.body)
		}
		if code != g.status || body != g.want {
			t.Errorf("%s %s:\n  got  %d %s\n  want %d %s", g.method, g.url, code, body, g.status, g.want)
		}
	}

	// Healthz golden (map keys marshal sorted).
	if code, body := get(t, h, "/healthz"); code != 200 ||
		body != `{"cube":"GC(6,2^2)","epoch":0,"fingerprint":"0x0","status":"ok"}` {
		t.Errorf("/healthz: %d %s", code, body)
	}
}

// TestFaultsEndpointGolden: mutations over HTTP bump the epoch, and a
// route to the faulted node returns the 409 + error-envelope contract.
func TestFaultsEndpointGolden(t *testing.T) {
	cube := gc.New(6, 2)
	s := mustServer(t, Config{Cube: cube, Shards: 2})
	h := NewHandler(s)

	if code, body := get(t, h, "/faults"); code != 200 || body != `{"epoch":0,"faults":0}` {
		t.Fatalf("GET /faults: %d %s", code, body)
	}
	code, body := post(t, h, "/faults", `[{"op":"inject","kind":"node","node":7}]`)
	if code != 200 || body != `{"epoch":1,"faults":1,"applied":1}` {
		t.Fatalf("POST /faults: %d %s", code, body)
	}
	code, body = get(t, h, "/route?src=0&dst=7")
	want := `{"src":0,"dst":7,"outcome":"error","hops":0,"epoch":1,"error":"core: source or destination node is faulty"}`
	if code != http.StatusConflict || body != want {
		t.Fatalf("route to faulty node:\n  got  %d %s\n  want %d %s", code, body, 409, want)
	}
	// Bad batches are 400 and mutate nothing.
	if code, _ := post(t, h, "/faults", `[{"op":"inject","kind":"node","node":7},{"op":"bogus"}]`); code != 400 {
		t.Fatalf("bad batch: %d", code)
	}
	if code, body := get(t, h, "/faults"); code != 200 || body != `{"epoch":1,"faults":1}` {
		t.Fatalf("after bad batch: %d %s", code, body)
	}
}

// TestMetricsGoldenShape pins the /metrics document's top-level key
// set and its conservation relations after a known request mix.
func TestMetricsGoldenShape(t *testing.T) {
	cube := gc.New(6, 2)
	s := mustServer(t, Config{Cube: cube, Shards: 2, TraceEvery: 2, TraceRing: 64})
	h := NewHandler(s)

	for i := 0; i < 10; i++ {
		if code, _ := get(t, h, "/route?src=1&dst=62"); code != 200 {
			t.Fatalf("warmup route %d failed", i)
		}
	}
	code, body := get(t, h, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics: %d", code)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	keys := make([]string, 0, len(doc))
	for k := range doc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := []string{
		"accepted", "coalesced", "epoch", "errors", "fast_path_hits", "faults",
		"hops", "latency_us", "outcomes", "per_shard", "rejected", "served",
		"shards", "uptime_ms",
	}
	if got := strings.Join(keys, ","); got != strings.Join(want, ",") {
		t.Fatalf("top-level keys:\n  got  %s\n  want %s", got, strings.Join(want, ","))
	}

	m := s.Metrics()
	if m.Accepted != 10 || m.Served != 10 || m.Outcomes["delivered"] != 10 {
		t.Fatalf("counters after 10 delivered: %+v", m)
	}
	if m.Latency.Stats().Count() != 10 || m.Hops.Stats().Count() != 10 {
		t.Fatalf("histogram counts: latency=%d hops=%d", m.Latency.Stats().Count(), m.Hops.Stats().Count())
	}
	if len(m.PerShard) != 2 {
		t.Fatalf("per-shard entries: %d", len(m.PerShard))
	}

	// Sampling: TraceEvery=2 over 10 same-shard requests -> 5 sampled.
	code, body = get(t, h, "/debug/traces")
	if code != 200 {
		t.Fatalf("/debug/traces: %d", code)
	}
	// trace.Kind marshals as a string (no unmarshaler), so decode only
	// the ring totals here.
	var rings []struct {
		Shard int    `json:"shard"`
		Total uint64 `json:"total"`
	}
	if err := json.Unmarshal([]byte(body), &rings); err != nil {
		t.Fatalf("traces JSON: %v", err)
	}
	var events uint64
	for _, r := range rings {
		events += r.Total
	}
	if events == 0 {
		t.Fatal("sampled tracing emitted nothing")
	}
}

// TestTracesDisabled: without TraceEvery the endpoint 404s.
func TestTracesDisabled(t *testing.T) {
	s := mustServer(t, Config{Cube: gc.New(6, 2)})
	if code, _ := get(t, NewHandler(s), "/debug/traces"); code != 404 {
		t.Fatalf("traces on an untraced server: %d, want 404", code)
	}
}

// TestHTTPBackpressureAndDrain: a request over its shard's in-flight
// bound is 429 + Retry-After; a draining server is 503 on /route and
// /healthz.
func TestHTTPBackpressureAndDrain(t *testing.T) {
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	testHookProcess = func() {
		entered <- struct{}{}
		<-release
	}
	defer func() { testHookProcess = nil }()

	cube := gc.New(6, 2)
	s := mustServer(t, Config{Cube: cube, Shards: 1, QueueDepth: 1})
	h := NewHandler(s)

	done := make(chan struct{}, 1)
	go func() { get(t, h, "/route?src=1&dst=2"); done <- struct{}{} }()
	<-entered // held mid-plan: the shard has 1 of 1 in flight

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/route?src=1&dst=4", nil))
	if w.Code != http.StatusTooManyRequests || w.Header().Get("Retry-After") != "1" {
		t.Fatalf("backpressure: %d Retry-After=%q", w.Code, w.Header().Get("Retry-After"))
	}
	close(release)
	<-done
	if m := s.Metrics(); m.Accepted != 1 || m.Served != 1 || m.Rejected != 1 {
		t.Fatalf("accepted=%d served=%d rejected=%d, want 1/1/1", m.Accepted, m.Served, m.Rejected)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if code, _ := get(t, h, "/route?src=1&dst=2"); code != http.StatusServiceUnavailable {
		t.Fatalf("draining /route: %d", code)
	}
	if code, _ := get(t, h, "/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("draining /healthz: %d", code)
	}
}

// TestHTTPKeepsTimers is TestWireReaderKeepsTimers for HTTP: a /route
// miss is planned on its handler's goroutine, which readies no other
// goroutine, so one keep-alive client looping misses (cache disabled)
// must not stall the process's timers. Fault batches applied beside it
// on a journaled server (2 ms group commit) must still be acked in
// milliseconds.
func TestHTTPKeepsTimers(t *testing.T) {
	cube := gc.New(10, 3)
	s := mustServer(t, Config{Cube: cube, CacheCapacity: -1, Journal: &JournalConfig{Dir: t.TempDir(), Sync: 2 * time.Millisecond}})
	if err := s.WaitJournal(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()
	client := ts.Client()

	stop, routed := make(chan struct{}), make(chan error, 1)
	go func() {
		rng := rand.New(rand.NewSource(1))
		for {
			select {
			case <-stop:
				routed <- nil
				return
			default:
			}
			resp, err := client.Get(fmt.Sprintf("%s/route?src=%d&dst=%d", ts.URL, rng.Intn(cube.Nodes()), rng.Intn(cube.Nodes())))
			if err != nil {
				routed <- err
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				routed <- fmt.Errorf("/route: status %d", resp.StatusCode)
				return
			}
		}
	}()
	const applies = 60
	acks := make([]time.Duration, applies)
	for i := range acks {
		time.Sleep(10 * time.Millisecond)
		start := time.Now()
		if _, _, err := s.ApplyFaults(nil); err != nil {
			t.Fatal(err)
		}
		acks[i] = time.Since(start)
	}
	close(stop)
	if err := <-routed; err != nil {
		t.Fatal(err)
	}
	slices.Sort(acks)
	if p90 := acks[applies*9/10]; p90 > 100*time.Millisecond {
		t.Fatalf("fault acks beside a busy HTTP client: p50 %v, p90 %v, want p90 <= 100ms", acks[applies/2], p90)
	}
	if m := s.Metrics(); m.Served == 0 || m.FastPathHits != 0 {
		t.Fatalf("served=%d fast-path hits=%d, want misses only", m.Served, m.FastPathHits)
	}
}
