package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"zipr"
	"zipr/internal/fault"
	"zipr/internal/obs"
	"zipr/internal/serve"
)

// TestRingDistribution: virtual nodes spread the keyspace within a
// reasonable band, and every key routes to exactly one primary.
func TestRingDistribution(t *testing.T) {
	workers := []string{"a:1", "b:1", "c:1", "d:1"}
	r := newRing(workers)
	counts := make(map[string]int)
	const n = 4000
	for i := 0; i < n; i++ {
		counts[r.primary(fmt.Sprintf("key-%d", i))]++
	}
	for _, w := range workers {
		share := float64(counts[w]) / n
		if share < 0.10 || share > 0.45 {
			t.Errorf("worker %s owns %.1f%% of keys, outside [10%%, 45%%]", w, 100*share)
		}
	}
}

// TestRingStability pins the consistent-hashing contract: removing one
// worker remaps only the keys it owned — every key whose primary
// survives keeps that primary.
func TestRingStability(t *testing.T) {
	full := newRing([]string{"a:1", "b:1", "c:1", "d:1"})
	reduced := newRing([]string{"a:1", "b:1", "c:1"})
	moved := 0
	const n = 2000
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%d", i)
		was := full.primary(key)
		now := reduced.primary(key)
		if was != "d:1" && now != was {
			t.Fatalf("key %s moved %s -> %s though its primary survived", key, was, now)
		}
		if was == "d:1" {
			moved++
		}
	}
	if moved == 0 || moved == n {
		t.Fatalf("removed worker owned %d/%d keys — distribution is degenerate", moved, n)
	}
}

// TestRingReplicas: the failover order is primary-first and visits
// distinct workers.
func TestRingReplicas(t *testing.T) {
	r := newRing([]string{"a:1", "b:1", "c:1"})
	reps := r.replicas("some-key", 0)
	if len(reps) != 3 {
		t.Fatalf("got %d replicas, want 3", len(reps))
	}
	if reps[0] != r.primary("some-key") {
		t.Fatal("replica order does not start at the primary")
	}
	seen := map[string]bool{}
	for _, w := range reps {
		if seen[w] {
			t.Fatalf("replica %s repeated", w)
		}
		seen[w] = true
	}
	if got := newRing(nil).replicas("k", 0); got != nil {
		t.Fatalf("empty ring returned replicas %v", got)
	}
}

// TestHealthCircuit walks the breaker through its states: closed →
// open after consecutive failures, refusing while cooling, half-open
// single trial after cooldown, closed again on success.
func TestHealthCircuit(t *testing.T) {
	h := newHealth([]string{"w:1"})
	clock := time.Unix(100, 0)
	h.now = func() time.Time { return clock }

	for i := 0; i < failThreshold; i++ {
		if !h.admit("w:1") {
			t.Fatalf("closed circuit refused request %d", i)
		}
		h.report("w:1", false)
	}
	if h.up("w:1") {
		t.Fatal("circuit still up after threshold failures")
	}
	if h.admit("w:1") {
		t.Fatal("open circuit admitted inside cooldown")
	}
	clock = clock.Add(cooldown + time.Millisecond)
	if !h.admit("w:1") {
		t.Fatal("cooled circuit refused the half-open trial")
	}
	if h.admit("w:1") {
		t.Fatal("half-open circuit admitted a second concurrent trial")
	}
	// Failed trial re-opens immediately.
	h.report("w:1", false)
	if h.admit("w:1") {
		t.Fatal("failed trial did not re-open the circuit")
	}
	clock = clock.Add(cooldown + time.Millisecond)
	if !h.admit("w:1") {
		t.Fatal("re-cooled circuit refused a trial")
	}
	h.report("w:1", true)
	if !h.up("w:1") || !h.admit("w:1") {
		t.Fatal("successful trial did not close the circuit")
	}
}

// TestLimiterBuckets: the token bucket admits the burst, then refuses
// with a positive retry hint, and refills with time; distinct clients
// get distinct buckets.
func TestLimiterBuckets(t *testing.T) {
	l := newLimiter(2) // 2 rps, burst 4
	clock := time.Unix(100, 0)
	l.now = func() time.Time { return clock }

	for i := 0; i < 4; i++ {
		if ok, _ := l.allow("alice"); !ok {
			t.Fatalf("burst request %d refused", i)
		}
	}
	ok, retry := l.allow("alice")
	if ok || retry <= 0 {
		t.Fatalf("dry bucket: ok=%v retry=%v, want refusal with positive hint", ok, retry)
	}
	if ok, _ := l.allow("bob"); !ok {
		t.Fatal("a dry bucket for alice starved bob")
	}
	clock = clock.Add(time.Second) // 2 tokens accrue
	if ok, _ := l.allow("alice"); !ok {
		t.Fatal("bucket did not refill with time")
	}
	if ok, _ := newLimiter(0).allow("anyone"); !ok {
		t.Fatal("zero rate must disable limiting")
	}
}

// echoWorker is a stub worker: /rewrite answers with the sha256 of
// body+query (deterministic across workers, so byte-equality checks
// catch routing divergence) and /healthz answers ok.
func echoWorker(t *testing.T, calls *atomic.Int64) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/rewrite", func(w http.ResponseWriter, r *http.Request) {
		if calls != nil {
			calls.Add(1)
		}
		body, _ := io.ReadAll(r.Body)
		sum := sha256.Sum256(append(body, []byte(r.URL.RawQuery)...))
		w.Header().Set("X-Zipr-Cache", "miss")
		w.Write([]byte(hex.EncodeToString(sum[:])))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// addrOf strips the scheme from an httptest server URL.
func addrOf(ts *httptest.Server) string {
	return strings.TrimPrefix(ts.URL, "http://")
}

// gwPost sends one /rewrite through the gateway handler.
func gwPost(t *testing.T, h http.Handler, body string, hdr map[string]string) *http.Response {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/rewrite", strings.NewReader(body))
	req.RemoteAddr = "198.51.100.7:4242"
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr.Result()
}

// TestGatewayRoutesAndFailsOver: requests land on ring-chosen workers;
// when one worker dies mid-run the gateway retries onto the survivor
// and answers identically, surfacing the retry in fleet metrics.
func TestGatewayRoutesAndFailsOver(t *testing.T) {
	var callsA, callsB atomic.Int64
	wa, wb := echoWorker(t, &callsA), echoWorker(t, &callsB)
	reg := obs.NewRegistry()
	g := New(Config{Workers: []string{addrOf(wa), addrOf(wb)}, Registry: reg})
	h := g.Handler(reg)

	// Collect the answer for enough distinct inputs that both workers
	// serve some share.
	want := map[string]string{}
	for i := 0; i < 16; i++ {
		body := fmt.Sprintf("input-%d", i)
		resp := gwPost(t, h, body, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		ans, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		want[body] = string(ans)
	}
	if callsA.Load() == 0 || callsB.Load() == 0 {
		t.Fatalf("load did not shard: worker calls %d/%d", callsA.Load(), callsB.Load())
	}

	// Kill worker A. Every request still answers, with the same bytes
	// (the stub is deterministic), via failover to B.
	wa.Close()
	for body, ans := range want {
		resp := gwPost(t, h, body, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-kill status %d", resp.StatusCode)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if string(got) != ans {
			t.Fatalf("post-kill answer diverged for %q", body)
		}
	}
	if g.retries.Value() == 0 {
		t.Fatal("failover left no trace in fleet.retries")
	}
	if g.rebalance.Value() == 0 {
		t.Fatal("failover left no trace in fleet.ring.rebalance")
	}
	// The dead worker's circuit opens once its failures cross the
	// threshold, and /fleet reports it.
	g.Probe(context.Background())
	if g.upGauge[addrOf(wa)].Value() != 0 {
		t.Fatal("dead worker still reported up")
	}
	if g.upGauge[addrOf(wb)].Value() != 1 {
		t.Fatal("healthy worker reported down")
	}
	frr := httptest.NewRecorder()
	h.ServeHTTP(frr, httptest.NewRequest(http.MethodGet, "/fleet", nil))
	var st fleetStatus
	if err := json.NewDecoder(frr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Workers) != 2 {
		t.Fatalf("/fleet lists %d workers, want 2", len(st.Workers))
	}
}

// TestGatewayRateLimit: a dry token bucket answers 429 with a
// Retry-After hint; an independent client identity is unaffected.
func TestGatewayRateLimit(t *testing.T) {
	w := echoWorker(t, nil)
	reg := obs.NewRegistry()
	g := New(Config{Workers: []string{addrOf(w)}, Rate: 1, Registry: reg}) // burst 2
	h := g.Handler(reg)

	var got429 bool
	for i := 0; i < 4; i++ {
		resp := gwPost(t, h, "x", map[string]string{"X-Zipr-Client": "alice"})
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			got429 = true
			ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
			if err != nil || ra < 1 {
				t.Fatalf("429 Retry-After = %q, want integer >= 1", resp.Header.Get("Retry-After"))
			}
		}
	}
	if !got429 {
		t.Fatal("burst of 4 at rate 1 never saw a 429")
	}
	if resp := gwPost(t, h, "x", map[string]string{"X-Zipr-Client": "bob"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("bob rate-limited by alice's bucket: status %d", resp.StatusCode)
	}
	if g.limited.Value() == 0 {
		t.Fatal("429s left no trace in fleet.ratelimited")
	}
}

// TestChaosWorkerDownTwoOutcomes pins the fault.WorkerDown contract:
// with a spare replica the request fails over and answers the same
// bytes; with no spare it fails closed with typed unavailability (502)
// — never divergent output.
func TestChaosWorkerDownTwoOutcomes(t *testing.T) {
	input := []byte("chaos-input")
	// Compute the firing site exactly as the gateway will route it.
	key := routeKey(input, url.Values{})
	site := binary.LittleEndian.Uint32(key[:4])
	var inj *fault.Injector
	for seed := int64(1); seed <= 1000; seed++ {
		if cand := fault.NewArmed(seed, fault.WorkerDown); cand.Fires(fault.WorkerDown, site) {
			inj = cand
			break
		}
	}
	if inj == nil {
		t.Fatal("no firing seed found in 1000 tries")
	}

	// Outcome 1: a two-worker fleet degrades via failover.
	wa, wb := echoWorker(t, nil), echoWorker(t, nil)
	reg := obs.NewRegistry()
	g := New(Config{Workers: []string{addrOf(wa), addrOf(wb)}, Registry: reg, Chaos: inj})
	clean := New(Config{Workers: []string{addrOf(wa), addrOf(wb)}, Registry: obs.NewRegistry()})
	wantResp := gwPost(t, clean.Handler(obs.NewRegistry()), string(input), nil)
	want, _ := io.ReadAll(wantResp.Body)
	wantResp.Body.Close()

	resp := gwPost(t, g.Handler(reg), string(input), nil)
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chaos failover status %d, want 200", resp.StatusCode)
	}
	if string(got) != string(want) {
		t.Fatal("chaos failover returned divergent bytes")
	}
	if g.retries.Value() == 0 {
		t.Fatal("injected outage left no trace in fleet.retries")
	}

	// Outcome 2: a single-worker fleet fails closed.
	g1 := New(Config{Workers: []string{addrOf(wa)}, Registry: obs.NewRegistry(), Chaos: inj})
	resp1 := gwPost(t, g1.Handler(obs.NewRegistry()), string(input), nil)
	io.Copy(io.Discard, resp1.Body)
	resp1.Body.Close()
	if resp1.StatusCode != http.StatusBadGateway {
		t.Fatalf("single-worker chaos status %d, want 502", resp1.StatusCode)
	}
	if g1.unavail.Value() != 1 {
		t.Fatal("typed unavailability left no trace in fleet.unavailable")
	}
}

// TestRouteKeyMatchesWorkerKey: the gateway's routing key is the
// content address the worker caches the same query under: the Config
// zipr.ParseConfig builds from the query (the worker's helper) and the
// hand-built Config it names, each keyed by serve.CacheKey. A request
// the worker refuses routes on its input alone.
func TestRouteKeyMatchesWorkerKey(t *testing.T) {
	input := []byte("route-input")
	for _, tc := range []struct {
		q    url.Values
		want zipr.Config
	}{
		{url.Values{}, zipr.Config{Transforms: []zipr.Transform{zipr.Null()}}},
		{url.Values{"transforms": {"cfi"}, "layout": {"diversity"}, "seed": {"7"}},
			zipr.Config{Transforms: []zipr.Transform{zipr.CFI()}, Layout: zipr.LayoutDiversity, Seed: 7}},
		{url.Values{"transforms": {"cfi"}, "isa": {"zvm64"}},
			zipr.Config{Transforms: []zipr.Transform{zipr.CFI()}, ISA: "zvm64"}},
		{url.Values{"transforms": {"stackpad:32"}, "arbitration": {"weighted"}},
			zipr.Config{Transforms: []zipr.Transform{zipr.StackPad(32)}, Arbitration: zipr.ArbitrationWeighted}},
		{url.Values{"transforms": {"bogus"}, "layout": {"diversity"}, "seed": {"7"}}, zipr.Config{}},
	} {
		got := routeKey(input, tc.q)
		if want := serve.CacheKey(input, tc.want); got != want {
			t.Errorf("query %v: gateway key differs from the named Config's", tc.q)
		}
		seed, _ := strconv.ParseInt(tc.q.Get("seed"), 10, 64)
		cfg, err := zipr.ParseConfig(tc.q.Get("transforms"), tc.q.Get("layout"), tc.q.Get("arbitration"), tc.q.Get("isa"), seed)
		if err == nil && got != serve.CacheKey(input, cfg) {
			t.Errorf("query %v: gateway key differs from the worker's", tc.q)
		}
	}
}
