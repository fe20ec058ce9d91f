// Command ziprd is the batch rewriting daemon: a long-running front end
// over the zipr pipeline with a content-addressed rewrite cache,
// singleflight de-duplication, bounded-queue admission control (see
// internal/serve) and service-grade telemetry (labeled metrics,
// per-request tracing, a JSONL access log).
//
// Usage:
//
//	ziprd [-j N | -workers N] [-queue N] [-cache-bytes N] [-snapshot-bytes N]
//	      [-disk-cache DIR] [-disk-bytes N] [-deadline D]
//	      [-chaos-seed N] [-listen ADDR] [-stats] [-access-log FILE]
//	      [-trace-sample N]
//	ziprd -listen ADDR -gateway WORKER,WORKER,... [-rate R] [-chaos-seed N]
//
// With -gateway, ziprd is not a rewriter at all: it fronts the listed
// worker daemons, routing each /rewrite to the worker that owns its
// content-address key on a consistent-hash ring, failing over along
// the ring when a worker is down (health-probed circuit breakers),
// and rate-limiting clients at -rate requests/second (429 +
// Retry-After). The gateway serves /rewrite, /healthz, /metrics
// (fleet_* families), and /fleet (worker circuit snapshot).
//
// -disk-cache DIR adds a disk-backed second cache tier behind the
// in-memory LRU: rewritten outputs and placement snapshots spill to a
// content-addressed store (crash-safe temp+rename writes, -disk-bytes
// budget with LRU eviction, a digest trailer on every object verified
// on read) so a restarted daemon answers previously-seen inputs
// without a pipeline run.
//
// With -listen, ziprd serves HTTP:
//
//	POST /rewrite?transforms=cfi,stackpad:32&layout=diversity&seed=7&arbitration=weighted
//	    request body: the ZELF input image; response body: the
//	    rewritten image. X-Zipr-Cache reports hit, miss, or delta
//	    (answered by patching a placement-snapshot ancestor of an
//	    edited input; -snapshot-bytes -1 turns this off). Saturation
//	    rejects with 503, malformed inputs with 400. A caller-supplied
//	    X-Zipr-Trace ID (1-64 chars of [A-Za-z0-9._-]) is echoed back
//	    and stamped on the access log; absent or invalid IDs are
//	    replaced with a generated one.
//	GET /stats            cache and admission counters as JSON, plus a
//	                      labeled-metrics snapshot with rolling quantiles
//	GET /metrics          Prometheus text exposition (zipr_* families)
//	GET /healthz          liveness probe
//	GET /debug/requests   recent sampled request span trees (JSON)
//	GET /debug/phases     server-lifetime aggregated phase table
//	GET /debug/pprof/     Go profiling endpoints
//
// Without -listen, ziprd runs in JSONL batch mode: one request object
// per stdin line, one response object per stdout line, responses in
// input order regardless of -j. Request fields: id, trace, input
// (base64), transforms, layout, arbitration (two-way, the default, or
// weighted — DESIGN.md §13), isa, seed, deadline_ms. Response fields:
// id, trace, output (base64), input_size, output_size, layout, cached,
// delta, error, class.
//
// Both modes build a request's configuration with zipr.ParseConfig:
// transforms is the spec cmd/zipr's -transforms flag takes, and a bad
// spec or an unknown layout, arbitration or isa is refused with class
// usage (HTTP 400) before any pipeline run.
//
// -access-log appends one JSON line per request (trace ID, content
// digests, outcome, queue wait, wall time, phase breakdown, error
// class) in both modes. -trace-sample=N keeps every N-th request's
// span tree for /debug/requests (default 1: all; 0 disables).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"zipr"
	"zipr/internal/fleet"
	"zipr/internal/obs"
	"zipr/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ziprd:", err)
		os.Exit(1)
	}
}

func run() error {
	listen := flag.String("listen", "", "HTTP listen address (empty: JSONL batch mode on stdin/stdout)")
	workers := flag.Int("j", 0, "max concurrent pipeline runs (0 = GOMAXPROCS)")
	flag.IntVar(workers, "workers", 0, "alias for -j")
	queue := flag.Int("queue", 0, "admission queue depth (0 = default)")
	cacheBytes := flag.Int64("cache-bytes", 0, "rewrite cache byte budget (0 = default 64 MiB, negative disables)")
	snapBytes := flag.Int64("snapshot-bytes", 0, "placement-snapshot byte budget for delta rewriting (0 = default 32 MiB, negative disables)")
	diskCache := flag.String("disk-cache", "", "directory for the disk-backed second cache tier (empty: RAM only)")
	diskBytes := flag.Int64("disk-bytes", 0, "disk-tier byte budget (0 = default 256 MiB)")
	gateway := flag.String("gateway", "", "run as a fleet gateway over these comma-separated worker addresses")
	rate := flag.Float64("rate", 0, "gateway per-client admission rate in requests/second (0 = unlimited)")
	deadline := flag.Duration("deadline", 30*time.Second, "default per-request deadline")
	chaosSeed := flag.Int64("chaos-seed", 0, "arm deterministic fault injection with this seed (0 = off)")
	stats := flag.Bool("stats", false, "print cache and admission counters to stderr on exit (batch mode)")
	accessLog := flag.String("access-log", "", "append one JSON line per request to this file")
	traceSample := flag.Int64("trace-sample", 1, "keep every N-th request's span tree for /debug/requests (0 disables)")
	flag.Parse()

	reg := obs.NewRegistry()

	if *gateway != "" {
		if *listen == "" {
			return fmt.Errorf("-gateway requires -listen")
		}
		gcfg := fleet.Config{Workers: strings.Split(*gateway, ","), Rate: *rate, Registry: reg}
		if *chaosSeed != 0 {
			gcfg.Chaos = zipr.NewFaultInjector(*chaosSeed)
			fmt.Fprintf(os.Stderr, "ziprd: chaos: %s\n", gcfg.Chaos.Describe())
		}
		g := fleet.New(gcfg)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		g.Start(ctx)
		fmt.Fprintf(os.Stderr, "ziprd: gateway on %s over %s\n", *listen, *gateway)
		return http.ListenAndServe(*listen, g.Handler(reg))
	}

	opts := serve.Options{
		Workers:       *workers,
		QueueDepth:    *queue,
		CacheBytes:    *cacheBytes,
		SnapshotBytes: *snapBytes,
		Registry:      reg,
	}
	if *chaosSeed != 0 {
		opts.Chaos = zipr.NewFaultInjector(*chaosSeed)
		fmt.Fprintf(os.Stderr, "ziprd: chaos: %s\n", opts.Chaos.Describe())
	}
	if *diskCache != "" {
		tier, err := serve.OpenDiskTier(*diskCache, *diskBytes)
		if err != nil {
			return fmt.Errorf("disk cache: %w", err)
		}
		defer tier.Close()
		opts.Disk = tier
	}
	s := serve.New(opts)
	defer s.Close()

	d := newDaemon(s, reg, *deadline)
	d.sample = *traceSample
	if *accessLog != "" {
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return fmt.Errorf("access log: %w", err)
		}
		defer f.Close()
		d.logW = f
	}

	if *listen != "" {
		fmt.Fprintf(os.Stderr, "ziprd: listening on %s (j=%d)\n", *listen, *workers)
		return http.ListenAndServe(*listen, newHandler(d))
	}
	err := runBatch(d, os.Stdin, os.Stdout, *workers)
	if *stats {
		st := s.Stats()
		fmt.Fprintf(os.Stderr, "ziprd: %d runs, %d hits, %d misses, %d delta, %d shared, %d evicted, %d rejected\n",
			st.PipelineRuns, st.Hits, st.Misses, st.DeltaHits, st.Shared, st.Evictions, st.Rejected)
	}
	return err
}

// request is one JSONL batch request. Input is base64 in the wire form
// (encoding/json's []byte convention). Trace is an optional
// caller-supplied trace ID, echoed back on the response.
type request struct {
	ID          string `json:"id,omitempty"`
	Trace       string `json:"trace,omitempty"`
	Input       []byte `json:"input"`
	Transforms  string `json:"transforms,omitempty"`
	Layout      string `json:"layout,omitempty"`
	Arbitration string `json:"arbitration,omitempty"`
	ISA         string `json:"isa,omitempty"`
	Seed        int64  `json:"seed,omitempty"`
	DeadlineMS  int64  `json:"deadline_ms,omitempty"`
}

// response is one JSONL batch response (also the /stats error shape).
type response struct {
	ID         string `json:"id,omitempty"`
	Trace      string `json:"trace,omitempty"`
	Output     []byte `json:"output,omitempty"`
	InputSize  int    `json:"input_size,omitempty"`
	OutputSize int    `json:"output_size,omitempty"`
	Layout     string `json:"layout,omitempty"`
	Cached     bool   `json:"cached"`
	Delta      bool   `json:"delta,omitempty"`
	Error      string `json:"error,omitempty"`
	Class      string `json:"class,omitempty"`
}

// runBatch consumes JSONL requests from r and emits JSONL responses to
// w in input order. Up to jobs requests are processed concurrently
// (0 = GOMAXPROCS via the server's admission control; the reorder
// window is bounded by the worker count).
func runBatch(d *daemon, r io.Reader, w io.Writer, jobs int) error {
	if jobs <= 0 {
		jobs = 4
	}
	// Responses must come out in input order: the reader enqueues one
	// result channel per line, a single writer drains them in order, and
	// the per-line goroutines (bounded by sem) fill them as they finish.
	pending := make(chan chan response, jobs)
	sem := make(chan struct{}, jobs)
	writeErr := make(chan error, 1)
	go func() {
		bw := bufio.NewWriter(w)
		enc := json.NewEncoder(bw)
		var first error
		for ch := range pending {
			resp := <-ch
			if first == nil {
				if err := enc.Encode(resp); err != nil {
					first = err
				}
			}
		}
		if first == nil {
			first = bw.Flush()
		}
		writeErr <- first
	}()

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	var line int
	for sc.Scan() {
		line++
		raw := append([]byte(nil), sc.Bytes()...)
		ch := make(chan response, 1)
		pending <- ch
		sem <- struct{}{}
		go func(line int, raw []byte) {
			defer func() { <-sem }()
			var req request
			if err := json.Unmarshal(raw, &req); err != nil {
				ch <- response{Error: fmt.Sprintf("line %d: %v", line, err), Class: "usage"}
				return
			}
			ch <- d.handle(context.Background(), req)
		}(line, raw)
	}
	close(pending)
	if err := <-writeErr; err != nil {
		return err
	}
	return sc.Err()
}

// statusFor maps the typed error taxonomy onto HTTP: saturation is a
// retryable 503, caller mistakes are 4xx, pipeline failures are 500.
func statusFor(class string) int {
	switch class {
	case "busy":
		return http.StatusServiceUnavailable
	case "usage", "format":
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}
