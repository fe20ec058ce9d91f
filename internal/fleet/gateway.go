package fleet

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"time"

	"zipr"
	"zipr/internal/fault"
	"zipr/internal/obs"
	"zipr/internal/serve"
)

// Retry tuning: a request gets at most maxAttempts tries across
// distinct ring replicas, with exponential backoff from retryBase and
// full jitter between them. The budget is deliberately small — a
// replica that can't answer inside two hops means the fleet is
// degraded, and queueing more retries just amplifies the outage.
const (
	maxAttempts = 3
	retryBase   = 10 * time.Millisecond
)

// maxBody mirrors the worker daemon's request-size cap.
const maxBody = 256 << 20

// Config configures a Gateway.
type Config struct {
	// Workers are the worker daemon addresses (host:port).
	Workers []string
	// Rate is the per-client admission rate in requests/second
	// (burst 2×rate). 0 disables rate limiting.
	Rate float64
	// Registry receives the fleet.* metric families (nil: no metrics).
	Registry *obs.Registry
	// Chaos injects faults (fault.WorkerDown makes the first forward of
	// an affected request behave as a connection failure). Nil: none.
	Chaos *fault.Injector
	// Client overrides the forwarding HTTP client (tests).
	Client *http.Client
}

// Gateway routes /rewrite requests across a fleet of worker daemons by
// consistent hashing over the request's content-address key, with
// health-gated failover along the ring and per-client rate limiting.
// Construct with New, serve Handler(), and optionally Start a health
// probe loop.
type Gateway struct {
	ring    *ring
	health  *health
	limiter *limiter
	client  *http.Client
	chaos   *fault.Injector

	forwards  map[string]*obs.Counter // fleet.forward.total{worker}
	latency   *obs.WindowSeries       // fleet.forward.latency, µs
	retries   *obs.Counter            // fleet.retries
	limited   *obs.Counter            // fleet.ratelimited
	rebalance *obs.Counter            // fleet.ring.rebalance
	unavail   *obs.Counter            // fleet.unavailable
	upGauge   map[string]*obs.Gauge   // fleet.worker.up{worker}
	ringSize  *obs.Gauge              // fleet.ring.workers
}

// New builds a Gateway over cfg.Workers.
func New(cfg Config) *Gateway {
	g := &Gateway{
		ring:    newRing(cfg.Workers),
		limiter: newLimiter(cfg.Rate),
		client:  cfg.Client,
		chaos:   cfg.Chaos,
	}
	g.health = newHealth(g.ring.workers)
	if g.client == nil {
		g.client = &http.Client{Timeout: 2 * time.Minute}
	}
	reg := cfg.Registry
	fwdVec := reg.Counter("fleet.forward.total", "requests forwarded by worker", "worker")
	upVec := reg.Gauge("fleet.worker.up", "1 when the worker's circuit is closed", "worker")
	g.forwards = make(map[string]*obs.Counter, len(g.ring.workers))
	g.upGauge = make(map[string]*obs.Gauge, len(g.ring.workers))
	for _, w := range g.ring.workers {
		g.forwards[w] = fwdVec.With(w)
		g.upGauge[w] = upVec.With(w)
		g.upGauge[w].Set(1)
	}
	g.latency = reg.Window("fleet.forward.latency", "gateway forward round-trip in microseconds", 5*time.Minute).With()
	g.retries = reg.Counter("fleet.retries", "forwards retried on another replica").With()
	g.limited = reg.Counter("fleet.ratelimited", "requests refused with 429").With()
	g.rebalance = reg.Counter("fleet.ring.rebalance", "requests answered by a non-primary replica").With()
	g.unavail = reg.Counter("fleet.unavailable", "requests that exhausted every replica").With()
	g.ringSize = reg.Gauge("fleet.ring.workers", "workers on the ring").With()
	g.ringSize.Set(int64(len(g.ring.workers)))
	return g
}

// Start launches the background health-probe loop; it stops when ctx
// is done. Without it, circuits still open and half-open on request
// traffic alone, just without proactive healing.
func (g *Gateway) Start(ctx context.Context) {
	go g.health.probeLoop(ctx, g.client, "http")
}

// Probe runs one synchronous health round (tests and fleet-smoke).
func (g *Gateway) Probe(ctx context.Context) {
	g.health.probe(ctx, g.client, "http")
	g.syncUp()
}

// syncUp mirrors circuit state into the fleet.worker.up gauges.
func (g *Gateway) syncUp() {
	for addr, state := range g.health.snapshot() {
		var v int64
		if state == circuitClosed {
			v = 1
		}
		g.upGauge[addr].Set(v)
	}
}

// routeKey is the request's content address, built as the worker builds
// it (zipr.ParseConfig, then serve.CacheKey), so a request and its
// repeats pin to the same worker shard. A request the worker refuses (a
// bad spec or name) routes on its input alone; a bad seed, which the
// worker refuses too, reads as 0.
func routeKey(input []byte, q url.Values) serve.Key {
	seed, _ := strconv.ParseInt(q.Get("seed"), 10, 64)
	cfg, err := zipr.ParseConfig(q.Get("transforms"), q.Get("layout"), q.Get("arbitration"), q.Get("isa"), seed)
	if err != nil {
		cfg = zipr.Config{}
	}
	return serve.CacheKey(input, cfg)
}

// ServeHTTP implements the gateway's /rewrite endpoint.
func (g *Gateway) rewrite(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if ok, retry := g.limiter.allow(clientKey(r)); !ok {
		g.limited.Add(1)
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int64(math.Ceil(retry.Seconds()))))
		http.Error(w, "rate limit exceeded", http.StatusTooManyRequests)
		return
	}
	input, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	key := routeKey(input, r.URL.Query())
	site := binary.LittleEndian.Uint32(key[:4])
	reps := g.ring.replicas(key.String(), maxAttempts)
	if len(reps) == 0 {
		g.unavail.Add(1)
		http.Error(w, "fleet: no workers configured", http.StatusBadGateway)
		return
	}
	attempt := 0
	for i, addr := range reps {
		if !g.health.admit(addr) {
			if i > 0 {
				g.rebalance.Add(1)
			}
			continue
		}
		if attempt > 0 {
			g.retries.Add(1)
			// Full-jitter exponential backoff before the retry hop.
			back := retryBase << (attempt - 1)
			time.Sleep(time.Duration(rand.Int63n(int64(back) + 1)))
		}
		attempt++
		// Injected worker outage: the first forward of an affected
		// request behaves as a connection failure, exercising the
		// failover path deterministically.
		if attempt == 1 && g.chaos.Fires(fault.WorkerDown, site) {
			g.health.report(addr, false)
			g.syncUp()
			continue
		}
		start := time.Now()
		resp, err := g.forward(r, addr, input)
		if err != nil {
			g.health.report(addr, false)
			g.syncUp()
			continue
		}
		// The worker answered; its status — success or app-level error
		// — is the request's answer. Only transport failures fail over.
		g.health.report(addr, true)
		g.syncUp()
		g.forwards[addr].Add(1)
		g.latency.Observe(time.Since(start).Microseconds())
		if i > 0 {
			g.rebalance.Add(1)
		}
		defer resp.Body.Close()
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.Header().Set("X-Zipr-Worker", addr)
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
		return
	}
	g.unavail.Add(1)
	http.Error(w, "fleet: no worker available", http.StatusBadGateway)
}

// forward replays the rewrite request against one worker.
func (g *Gateway) forward(r *http.Request, addr string, input []byte) (*http.Response, error) {
	url := "http://" + addr + "/rewrite"
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, url, bytes.NewReader(input))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if tr := r.Header.Get("X-Zipr-Trace"); tr != "" {
		req.Header.Set("X-Zipr-Trace", tr)
	}
	return g.client.Do(req)
}

// fleetStatus is the /fleet JSON shape.
type fleetStatus struct {
	Workers []workerStatus `json:"workers"`
}

type workerStatus struct {
	Addr    string `json:"addr"`
	Circuit string `json:"circuit"`
}

// Handler returns the gateway's HTTP mux: /rewrite (routed), /healthz,
// /metrics (needs a Registry), and /fleet (worker circuit snapshot).
func (g *Gateway) Handler(reg *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/rewrite", g.rewrite)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", obs.PromContentType)
		reg.WriteProm(w)
	})
	mux.HandleFunc("/fleet", func(w http.ResponseWriter, r *http.Request) {
		snap := g.health.snapshot()
		st := fleetStatus{}
		for addr, circuit := range snap {
			st.Workers = append(st.Workers, workerStatus{Addr: addr, Circuit: circuit})
		}
		sort.Slice(st.Workers, func(i, j int) bool { return st.Workers[i].Addr < st.Workers[j].Addr })
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(st)
	})
	return mux
}
