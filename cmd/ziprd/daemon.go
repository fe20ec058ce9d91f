// Daemon-side service telemetry: per-request trace IDs, the JSONL
// access log, the recent-request ring behind /debug/requests, the
// Prometheus /metrics rendering and the pprof wiring.
package main

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"zipr"
	"zipr/internal/obs"
	"zipr/internal/serve"
)

// ringCap bounds /debug/requests: the newest ringCap sampled span
// trees are kept, older ones overwritten.
const ringCap = 64

// daemon bundles the rewrite server with its service telemetry: the
// labeled metric registry behind /metrics, the server-lifetime span
// aggregate (every per-request trace folds into it), the sampled
// recent-request ring, and the access log.
type daemon struct {
	s        *serve.Server
	reg      *obs.Registry
	agg      *obs.Agg
	ring     *reqRing
	sample   int64 // keep every sample-th request's span tree (0: none)
	deadline time.Duration

	seq   atomic.Int64 // request sequence, drives head-sampling
	logMu sync.Mutex
	logW  io.Writer // JSONL access log; nil disables
}

// newDaemon wires a daemon around an existing server. reg must be the
// same registry the server was built with (it backs /metrics).
func newDaemon(s *serve.Server, reg *obs.Registry, deadline time.Duration) *daemon {
	return &daemon{
		s:        s,
		reg:      reg,
		agg:      obs.NewAgg(),
		ring:     newReqRing(ringCap),
		sample:   1,
		deadline: deadline,
	}
}

// reqRecord is one request's telemetry: the access-log line shape, and
// (with Spans populated for sampled requests) the /debug/requests
// entry.
type reqRecord struct {
	Trace       string           `json:"trace"`
	Time        string           `json:"time"`
	InputSHA    string           `json:"input_sha256,omitempty"`
	ConfigSHA   string           `json:"config_sha256,omitempty"`
	Outcome     string           `json:"outcome"`
	Tier        string           `json:"tier,omitempty"`
	QueueWaitNS int64            `json:"queue_wait_ns"`
	WallNS      int64            `json:"wall_ns"`
	InputSize   int              `json:"input_size,omitempty"`
	OutputSize  int              `json:"output_size,omitempty"`
	Error       string           `json:"error,omitempty"`
	Class       string           `json:"class,omitempty"`
	Phases      map[string]int64 `json:"phase_ns,omitempty"`
	Spans       []obs.Event      `json:"spans,omitempty"`
}

// newTraceID returns a fresh 16-hex-char request trace ID.
func newTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure is effectively fatal elsewhere; fall back
		// to a constant rather than crashing the request path.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// normalizeTraceID accepts a caller-supplied trace ID (X-Zipr-Trace
// header or the JSONL trace field) when it is 1-64 chars of
// [A-Za-z0-9._-], and mints a fresh one otherwise.
func normalizeTraceID(s string) string {
	if s == "" || len(s) > 64 {
		return newTraceID()
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return newTraceID()
		}
	}
	return s
}

// shortDigest renders the first 16 hex chars of sha256(b), the
// access-log form of input/config content addresses.
func shortDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// phaseWalls flattens a request trace into the access-log phase
// breakdown: wall nanoseconds for each root span and its direct
// children (the pipeline's top-level phases).
func phaseWalls(snap *obs.Snapshot) map[string]int64 {
	if snap == nil || len(snap.Spans) == 0 {
		return nil
	}
	m := make(map[string]int64, 8)
	for _, root := range snap.Spans {
		m[root.Name] += root.Wall.Nanoseconds()
		for _, c := range root.Children {
			m[root.Name+"."+c.Name] += c.Wall.Nanoseconds()
		}
	}
	return m
}

// logRecord appends one JSONL access-log line (without span trees).
func (d *daemon) logRecord(rec reqRecord) {
	if d.logW == nil {
		return
	}
	line := rec
	line.Spans = nil // span trees live in /debug/requests, not the log
	d.logMu.Lock()
	defer d.logMu.Unlock()
	enc := json.NewEncoder(d.logW)
	enc.Encode(line) // best-effort: a full disk must not fail requests
}

// handle answers one request against the server, recording telemetry:
// the per-request trace folds into the daemon's Agg, the access log
// gets one line, and head-sampled requests park their span tree in the
// /debug/requests ring.
func (d *daemon) handle(ctx context.Context, req request) response {
	deadline := d.deadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	traceID := normalizeTraceID(req.Trace)
	seq := d.seq.Add(1)
	sampled := d.sample > 0 && (seq-1)%d.sample == 0
	rec := reqRecord{
		Trace:    traceID,
		Time:     time.Now().UTC().Format(time.RFC3339Nano),
		InputSHA: shortDigest(req.Input),
	}

	// Requests that name no known transform, arbitration, layout or ISA
	// are usage errors, refused before they reach the server. The fleet
	// gateway routes on the same Config (fleet.routeKey).
	cfg, err := zipr.ParseConfig(req.Transforms, req.Layout, req.Arbitration, req.ISA, req.Seed)
	if err != nil {
		rec.Outcome, rec.Error, rec.Class = serve.OutcomeError, err.Error(), "usage"
		d.logRecord(rec)
		if sampled {
			d.ring.add(rec)
		}
		return response{ID: req.ID, Trace: traceID, Error: err.Error(), Class: "usage"}
	}
	tr := obs.New()
	cfg.Trace = tr
	rec.ConfigSHA = shortDigest([]byte(cfg.Fingerprint()))
	out, rep, meta, err := d.s.RewriteMeta(ctx, req.Input, cfg)
	d.agg.AddTrace(tr)
	snap := tr.Snapshot()
	rec.Outcome = meta.Outcome
	rec.Tier = meta.Tier
	rec.QueueWaitNS = meta.QueueWait.Nanoseconds()
	rec.WallNS = meta.Wall.Nanoseconds()
	rec.Phases = phaseWalls(snap)
	if err != nil {
		rec.Error, rec.Class = err.Error(), zipr.ErrorClass(err)
		d.logRecord(rec)
		if sampled {
			rec.Spans = snap.Events()
			d.ring.add(rec)
		}
		return response{ID: req.ID, Trace: traceID, Error: err.Error(), Class: rec.Class}
	}
	rec.InputSize, rec.OutputSize = rep.InputSize, rep.OutputSize
	d.logRecord(rec)
	if sampled {
		rec.Spans = snap.Events()
		d.ring.add(rec)
	}
	return response{
		ID:         req.ID,
		Trace:      traceID,
		Output:     out,
		InputSize:  rep.InputSize,
		OutputSize: rep.OutputSize,
		Layout:     rep.Layout,
		Cached:     meta.Outcome == serve.OutcomeHit || meta.Outcome == serve.OutcomeShared,
		Delta:      meta.Outcome == serve.OutcomeDelta,
	}
}

// reqRing is a bounded, concurrency-safe ring of recent request
// records (newest first on List).
type reqRing struct {
	mu   sync.Mutex
	buf  []reqRecord
	next int
	n    int
}

func newReqRing(capacity int) *reqRing {
	return &reqRing{buf: make([]reqRecord, capacity)}
}

func (r *reqRing) add(rec reqRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf[r.next] = rec
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// list returns the retained records, newest first.
func (r *reqRing) list() []reqRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]reqRecord, 0, r.n)
	for i := 1; i <= r.n; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}

// newHandler builds the daemon's HTTP interface: the rewrite API plus
// the telemetry surface (/metrics Prometheus exposition,
// /debug/requests sampled span trees, /debug/phases aggregated phase
// table, /debug/pprof/* profiling).
func newHandler(d *daemon) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(d.s.Stats())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", obs.PromContentType)
		d.reg.WriteProm(w)
	})
	mux.HandleFunc("/debug/requests", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(d.ring.list())
	})
	mux.HandleFunc("/debug/phases", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		d.agg.WriteTable(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/rewrite", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		input, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 256<<20))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		q := r.URL.Query()
		req := request{
			Input:       input,
			Transforms:  q.Get("transforms"),
			Layout:      q.Get("layout"),
			Arbitration: q.Get("arbitration"),
			ISA:         q.Get("isa"),
			Trace:       r.Header.Get("X-Zipr-Trace"),
		}
		if v := q.Get("seed"); v != "" {
			if req.Seed, err = strconv.ParseInt(v, 10, 64); err != nil {
				http.Error(w, "bad seed: "+v, http.StatusBadRequest)
				return
			}
		}
		if v := q.Get("deadline_ms"); v != "" {
			if req.DeadlineMS, err = strconv.ParseInt(v, 10, 64); err != nil {
				http.Error(w, "bad deadline_ms: "+v, http.StatusBadRequest)
				return
			}
		}
		resp := d.handle(r.Context(), req)
		w.Header().Set("X-Zipr-Trace", resp.Trace)
		if resp.Error != "" {
			http.Error(w, resp.Error, statusFor(resp.Class))
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-Zipr-Layout", resp.Layout)
		switch {
		case resp.Delta:
			w.Header().Set("X-Zipr-Cache", "delta")
		case resp.Cached:
			w.Header().Set("X-Zipr-Cache", "hit")
		default:
			w.Header().Set("X-Zipr-Cache", "miss")
		}
		w.Write(resp.Output)
	})
	return mux
}
