package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"zipr/internal/asm"
	"zipr/internal/obs"
	"zipr/internal/serve"
	"zipr/internal/synth"
)

func buildImage(t *testing.T) []byte {
	t.Helper()
	bin, err := synth.Build(0xD43D, synth.Profile{
		Name: "ziprdtest", NumFuncs: 8, OpsMin: 4, OpsMax: 10,
		HandwrittenFrac: 0.2, FuncPtrTableFrac: 0.3, DataWords: 32,
		InputLen: 4, LoopIters: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	img, err := bin.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func newTestDaemon(t *testing.T) *daemon {
	t.Helper()
	reg := obs.NewRegistry()
	s := serve.New(serve.Options{Workers: 2, Registry: reg})
	t.Cleanup(s.Close)
	return newDaemon(s, reg, 10*time.Second)
}

func TestHTTPRewriteHitAndMiss(t *testing.T) {
	d := newTestDaemon(t)
	ts := httptest.NewServer(newHandler(d))
	defer ts.Close()
	img := buildImage(t)

	post := func() (*http.Response, []byte) {
		resp, err := http.Post(ts.URL+"/rewrite?transforms=cfi", "application/octet-stream", bytes.NewReader(img))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}
	cold, coldBody := post()
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("cold POST: %d %s", cold.StatusCode, coldBody)
	}
	if got := cold.Header.Get("X-Zipr-Cache"); got != "miss" {
		t.Fatalf("cold X-Zipr-Cache = %q, want miss", got)
	}
	if cold.Header.Get("X-Zipr-Trace") == "" {
		t.Fatal("cold response missing generated X-Zipr-Trace")
	}
	hot, hotBody := post()
	if got := hot.Header.Get("X-Zipr-Cache"); got != "hit" {
		t.Fatalf("hot X-Zipr-Cache = %q, want hit", got)
	}
	if !bytes.Equal(coldBody, hotBody) {
		t.Fatal("hit body differs from cold rewrite")
	}
	if len(coldBody) == 0 || bytes.Equal(coldBody, img) {
		t.Fatal("rewrite returned the input unchanged")
	}
}

// deltaPair builds a program and an edit of it that changes the
// constants of one function: the edit is delta-eligible.
func deltaPair(t *testing.T) (base, edited []byte) {
	t.Helper()
	src := synth.Generate(0xD43E, synth.Profile{
		Name: "ziprdelta", NumFuncs: 10, OpsMin: 4, OpsMax: 10,
		DataWords: 32, InputLen: 4, LoopIters: 3,
	})
	msrc, n := synth.MutateConsts(src, 0x5EED, 1)
	if n != 1 {
		t.Fatalf("mutated %d functions, want 1", n)
	}
	build := func(s string) []byte {
		bin, err := asm.Assemble(s)
		if err != nil {
			t.Fatal(err)
		}
		img, err := bin.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	return build(src), build(msrc)
}

// TestHTTPDeltaOutcome: an edited input sharing an ancestor with a
// prior request is answered from its placement snapshot — X-Zipr-Cache
// says "delta", the JSONL response sets delta, and the bytes match what
// a daemon that never saw the base produces from scratch.
func TestHTTPDeltaOutcome(t *testing.T) {
	base, edited := deltaPair(t)

	d := newTestDaemon(t)
	ts := httptest.NewServer(newHandler(d))
	defer ts.Close()
	post := func(url string, img []byte) (*http.Response, []byte) {
		resp, err := http.Post(url+"/rewrite?transforms=cfi", "application/octet-stream", bytes.NewReader(img))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST: %d %s", resp.StatusCode, body)
		}
		return resp, body
	}
	if resp, _ := post(ts.URL, base); resp.Header.Get("X-Zipr-Cache") != "miss" {
		t.Fatalf("base X-Zipr-Cache = %q, want miss", resp.Header.Get("X-Zipr-Cache"))
	}
	resp, body := post(ts.URL, edited)
	if got := resp.Header.Get("X-Zipr-Cache"); got != "delta" {
		t.Fatalf("edited X-Zipr-Cache = %q, want delta", got)
	}

	// A daemon with no ancestry must produce the same bytes the hard way.
	fresh := newTestDaemon(t)
	ts2 := httptest.NewServer(newHandler(fresh))
	defer ts2.Close()
	resp2, want := post(ts2.URL, edited)
	if resp2.Header.Get("X-Zipr-Cache") != "miss" {
		t.Fatalf("fresh daemon X-Zipr-Cache = %q, want miss", resp2.Header.Get("X-Zipr-Cache"))
	}
	if !bytes.Equal(body, want) {
		t.Fatal("delta-served bytes diverge from a from-scratch rewrite")
	}

	// The batch wire shape carries the outcome too.
	var in, out bytes.Buffer
	enc := json.NewEncoder(&in)
	enc.Encode(request{ID: "a", Input: base, Transforms: "null"})
	enc.Encode(request{ID: "b", Input: edited, Transforms: "null"})
	if err := runBatch(d, &in, &out, 1); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d batch responses, want 2", len(lines))
	}
	var rb response
	if err := json.Unmarshal([]byte(lines[1]), &rb); err != nil {
		t.Fatal(err)
	}
	if !rb.Delta || rb.Cached {
		t.Fatalf("batch response b = %+v, want delta=true cached=false", rb)
	}
}

func TestHTTPErrors(t *testing.T) {
	d := newTestDaemon(t)
	ts := httptest.NewServer(newHandler(d))
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/rewrite", "application/octet-stream", strings.NewReader("junk"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed input: %d, want 400", resp.StatusCode)
	}
	// Error responses still carry the trace ID so failures are greppable.
	if resp.Header.Get("X-Zipr-Trace") == "" {
		t.Fatal("error response missing X-Zipr-Trace")
	}
	resp, err = http.Post(ts.URL+"/rewrite?transforms=bogus", "application/octet-stream", bytes.NewReader(buildImage(t)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown transform: %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/rewrite?arbitration=bogus", "application/octet-stream", bytes.NewReader(buildImage(t)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown arbitration: %d, want 400", resp.StatusCode)
	}
	// An unknown layout is a usage error too, refused before it takes a
	// worker slot.
	runs := d.s.Stats().PipelineRuns
	resp, err = http.Post(ts.URL+"/rewrite?layout=bogus", "application/octet-stream", bytes.NewReader(buildImage(t)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `unknown layout "bogus"`) {
		t.Fatalf("unknown layout: %d %q, want 400 naming the layout", resp.StatusCode, body)
	}
	if got := d.s.Stats().PipelineRuns; got != runs {
		t.Fatalf("unknown layout ran the pipeline (%d runs, was %d)", got, runs)
	}
	resp, err = http.Get(ts.URL + "/rewrite")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /rewrite: %d, want 405", resp.StatusCode)
	}
}

// TestHTTPArbitrationParam: the arbitration query parameter reaches the
// pipeline config — weighted and default answers come from different
// cache entries (the fingerprint folds |arb=weighted), and both modes
// rewrite successfully.
func TestHTTPArbitrationParam(t *testing.T) {
	d := newTestDaemon(t)
	ts := httptest.NewServer(newHandler(d))
	defer ts.Close()
	img := buildImage(t)

	post := func(q string) *http.Response {
		resp, err := http.Post(ts.URL+"/rewrite"+q, "application/octet-stream", bytes.NewReader(img))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	if resp := post(""); resp.Header.Get("X-Zipr-Cache") != "miss" {
		t.Fatalf("default cold request: cache %q, want miss", resp.Header.Get("X-Zipr-Cache"))
	}
	// A weighted request must not be answered from the default entry.
	w := post("?arbitration=weighted")
	if w.StatusCode != http.StatusOK {
		t.Fatalf("weighted request: %d", w.StatusCode)
	}
	if got := w.Header.Get("X-Zipr-Cache"); got != "miss" {
		t.Fatalf("weighted cold request: cache %q, want miss", got)
	}
	// Explicit two-way IS the default entry.
	if resp := post("?arbitration=two-way"); resp.Header.Get("X-Zipr-Cache") != "hit" {
		t.Fatalf("explicit two-way: cache %q, want hit of the default entry", resp.Header.Get("X-Zipr-Cache"))
	}
}

func TestHTTPStatsAndHealth(t *testing.T) {
	d := newTestDaemon(t)
	ts := httptest.NewServer(newHandler(d))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}

	img := buildImage(t)
	for i := 0; i < 2; i++ {
		r, err := http.Post(ts.URL+"/rewrite", "application/octet-stream", bytes.NewReader(img))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
	}
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.PipelineRuns != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 run, 1 hit, 1 miss", st)
	}
}

// TestStatsBackCompat pins the /stats wire shape: every pre-telemetry
// key must still be present under its original name, and the new
// Metrics array must carry the labeled snapshot with quantiles.
func TestStatsBackCompat(t *testing.T) {
	d := newTestDaemon(t)
	ts := httptest.NewServer(newHandler(d))
	defer ts.Close()

	img := buildImage(t)
	for i := 0; i < 2; i++ {
		r, err := http.Post(ts.URL+"/rewrite", "application/octet-stream", bytes.NewReader(img))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"Hits", "Misses", "Evictions", "Corrupt", "Shared", "Rejected",
		"Expired", "PipelineRuns", "CacheEntries", "CacheBytes", "QueueDepth",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("/stats lost pre-telemetry key %q", key)
		}
	}
	// Occupancy keys for the snapshot index and the disk tier ride along
	// (present even when the daemon runs without a disk tier).
	for _, key := range []string{
		"SnapAncestors", "DiskHits", "DiskMisses", "DiskPromotes",
		"DiskCorrupt", "DiskRecovered", "DiskEntries", "DiskBytes",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("/stats missing occupancy key %q", key)
		}
	}
	var hits, misses int64
	json.Unmarshal(m["Hits"], &hits)
	json.Unmarshal(m["Misses"], &misses)
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", hits, misses)
	}

	var fams []obs.FamilySnap
	if err := json.Unmarshal(m["Metrics"], &fams); err != nil {
		t.Fatalf("Metrics key missing or malformed: %v", err)
	}
	var sawTotal, sawLatency bool
	for _, fam := range fams {
		switch fam.Name {
		case "serve.request.total":
			sawTotal = true
			got := map[string]int64{}
			for _, se := range fam.Series {
				got[se.Labels[0]] = se.Value
			}
			if got["hit"] != 1 || got["miss"] != 1 {
				t.Fatalf("request.total = %v, want hit=1 miss=1", got)
			}
		case "serve.request.latency":
			sawLatency = true
			for _, se := range fam.Series {
				if se.Labels[0] == "miss" && (se.Count != 1 || se.P50 <= 0) {
					t.Fatalf("latency{miss} = %+v, want count 1 with quantiles", se)
				}
			}
		}
	}
	if !sawTotal || !sawLatency {
		t.Fatalf("Metrics missing labeled families (total=%v latency=%v)", sawTotal, sawLatency)
	}
}

// TestTraceRoundTrip: a caller-supplied X-Zipr-Trace ID must come back
// on the response header, appear in the access log line, and be
// findable in /debug/requests with the request's span tree.
func TestTraceRoundTrip(t *testing.T) {
	d := newTestDaemon(t)
	var logBuf bytes.Buffer
	d.logW = &logBuf
	ts := httptest.NewServer(newHandler(d))
	defer ts.Close()

	const traceID = "test-trace.0042"
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/rewrite?transforms=cfi",
		bytes.NewReader(buildImage(t)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Zipr-Trace", traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rewrite: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Zipr-Trace"); got != traceID {
		t.Fatalf("response X-Zipr-Trace = %q, want %q", got, traceID)
	}

	// Access log: one JSONL line carrying the trace ID, digests, outcome
	// and a phase breakdown.
	d.logMu.Lock()
	logLine := strings.TrimSpace(logBuf.String())
	d.logMu.Unlock()
	var rec reqRecord
	if err := json.Unmarshal([]byte(logLine), &rec); err != nil {
		t.Fatalf("access log line %q: %v", logLine, err)
	}
	if rec.Trace != traceID {
		t.Fatalf("access log trace = %q, want %q", rec.Trace, traceID)
	}
	if rec.Outcome != serve.OutcomeMiss || rec.WallNS <= 0 {
		t.Fatalf("access log record = %+v, want miss with wall > 0", rec)
	}
	if len(rec.InputSHA) != 16 || len(rec.ConfigSHA) != 16 {
		t.Fatalf("access log digests = %q/%q, want 16 hex chars each", rec.InputSHA, rec.ConfigSHA)
	}
	if rec.Phases["rewrite"] <= 0 || rec.Phases["rewrite.disassemble"] <= 0 {
		t.Fatalf("access log phases = %v, want rewrite + disassemble walls", rec.Phases)
	}
	if len(rec.Spans) != 0 {
		t.Fatal("access log line must not embed span trees")
	}

	// /debug/requests: the sampled ring holds the span tree under the
	// same trace ID.
	resp, err = http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	var ring []reqRecord
	if err := json.NewDecoder(resp.Body).Decode(&ring); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, r := range ring {
		if r.Trace == traceID {
			if len(r.Spans) == 0 {
				t.Fatal("/debug/requests entry has no span events")
			}
			return
		}
	}
	t.Fatalf("trace %q not found in /debug/requests (%d entries)", traceID, len(ring))
}

// TestInvalidTraceIDReplaced: hostile or malformed trace IDs are not
// echoed back; the daemon mints a clean one instead.
func TestInvalidTraceIDReplaced(t *testing.T) {
	for _, bad := range []string{"no spaces", "inj\"ect", strings.Repeat("x", 65), "new\nline"} {
		got := normalizeTraceID(bad)
		if got == bad || len(got) != 16 {
			t.Errorf("normalizeTraceID(%q) = %q, want fresh 16-hex ID", bad, got)
		}
	}
	for _, good := range []string{"a", "trace-1", "A.b_c-9", strings.Repeat("y", 64)} {
		if got := normalizeTraceID(good); got != good {
			t.Errorf("normalizeTraceID(%q) = %q, want unchanged", good, got)
		}
	}
}

// TestMetricsEndpoint: /metrics serves Prometheus text exposition with
// the labeled request families, including the latency histogram by
// outcome the scrape recipe in EXPERIMENTS.md depends on.
func TestMetricsEndpoint(t *testing.T) {
	d := newTestDaemon(t)
	ts := httptest.NewServer(newHandler(d))
	defer ts.Close()

	img := buildImage(t)
	for i := 0; i < 2; i++ {
		r, err := http.Post(ts.URL+"/rewrite", "application/octet-stream", bytes.NewReader(img))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("content type = %q, want %q", ct, obs.PromContentType)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE zipr_serve_request_total counter",
		`zipr_serve_request_total{outcome="hit"} 1`,
		`zipr_serve_request_total{outcome="miss"} 1`,
		"# TYPE zipr_serve_request_latency histogram",
		`zipr_serve_request_latency_bucket{outcome="miss",le="+Inf"} 1`,
		`zipr_serve_request_latency_count{outcome="miss"} 1`,
		"# TYPE zipr_serve_request_latency_p95 gauge",
		"# TYPE zipr_serve_pipeline_runs counter",
		"zipr_serve_pipeline_runs 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Every non-comment line must be "name{labels} value" with no
	// stray whitespace — a cheap exposition-format sanity pass (the
	// full validator lives in internal/obs).
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 || !strings.HasPrefix(fields[0], "zipr_") {
			t.Errorf("malformed exposition line %q", line)
		}
	}

	// pprof rides along on the same mux.
	resp, err = http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline: %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/debug/phases")
	if err != nil {
		t.Fatal(err)
	}
	phases, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(phases), "rewrite") {
		t.Fatalf("/debug/phases missing aggregated rewrite span:\n%s", phases)
	}
}

// TestMetricsMatchStatsAfterRestart: a daemon restarted on a disk tier
// answers an edit from the ancestor snapshot the tier kept, and a repeat
// of the base from the tier's output. Then every /metrics family that
// repeats a /stats field reads that field; serve.disk.hits counts the
// snapshot read as well as the output read.
func TestMetricsMatchStatsAfterRestart(t *testing.T) {
	base, edited := deltaPair(t)
	dir := t.TempDir()
	post := func(url string, img []byte, want string) {
		t.Helper()
		resp, err := http.Post(url+"/rewrite", "application/octet-stream", bytes.NewReader(img))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if got := resp.Header.Get("X-Zipr-Cache"); resp.StatusCode != http.StatusOK || got != want {
			t.Fatalf("POST: %d, X-Zipr-Cache = %q, want %q", resp.StatusCode, got, want)
		}
	}
	get := func(url string) []byte {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	serveOn := func(tier *serve.DiskTier) (*serve.Server, *httptest.Server) {
		reg := obs.NewRegistry()
		s := serve.New(serve.Options{Workers: 1, Disk: tier, Registry: reg})
		return s, httptest.NewServer(newHandler(newDaemon(s, reg, 10*time.Second)))
	}

	tier, err := serve.OpenDiskTier(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := serveOn(tier)
	post(ts.URL, base, "miss")
	ts.Close()
	s.Close()
	tier.Close() // drains the spills

	tier, err = serve.OpenDiskTier(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, ts = serveOn(tier)
	defer ts.Close()
	defer s.Close()
	post(ts.URL, edited, "delta")
	post(ts.URL, base, "hit")
	tier.Close() // drains this server's spills, so the two scrapes agree

	var st serve.Stats
	if err := json.Unmarshal(get(ts.URL+"/stats"), &st); err != nil {
		t.Fatal(err)
	}
	if st.DiskHits != 2 || st.DiskPromotes != 1 || st.PipelineRuns != 0 {
		t.Fatalf("disk hits/promotes/pipeline runs = %d/%d/%d, want 2/1/0", st.DiskHits, st.DiskPromotes, st.PipelineRuns)
	}
	metrics := map[string]int64{}
	for _, line := range strings.Split(string(get(ts.URL+"/metrics")), "\n") {
		var name string
		var v int64
		if _, err := fmt.Sscanf(line, "%s %d", &name, &v); err == nil {
			metrics[name] = v
		}
	}
	for name, want := range map[string]int64{
		"zipr_serve_queue_depth":      int64(st.QueueDepth),
		"zipr_serve_cache_bytes":      st.CacheBytes,
		"zipr_serve_cache_entries":    int64(st.CacheEntries),
		"zipr_serve_cache_evictions":  st.Evictions,
		"zipr_serve_cache_corrupt":    st.Corrupt,
		"zipr_serve_pipeline_runs":    st.PipelineRuns,
		"zipr_serve_delta_stale":      st.DeltaStale,
		"zipr_serve_snapshot_bytes":   st.SnapBytes,
		"zipr_serve_snapshot_entries": int64(st.SnapEntries),
		"zipr_serve_disk_hits":        st.DiskHits + st.DiskPendingHits,
		"zipr_serve_disk_promotes":    st.DiskPromotes,
		"zipr_serve_disk_corrupt":     st.DiskCorrupt,
		"zipr_serve_disk_bytes":       st.DiskBytes,
		"zipr_serve_disk_entries":     int64(st.DiskEntries),
	} {
		if got, ok := metrics[name]; !ok || got != want {
			t.Errorf("/metrics %s = %d (present %v), /stats says %d", name, got, ok, want)
		}
	}
}

// TestBatchOrderAndCaching: JSONL responses must come back in input
// order even with a concurrent worker pool, and repeats of one request
// must be answered without extra pipeline runs.
func TestBatchOrderAndCaching(t *testing.T) {
	d := newTestDaemon(t)
	img := buildImage(t)

	var in bytes.Buffer
	enc := json.NewEncoder(&in)
	const n = 12
	for i := 0; i < n; i++ {
		req := request{ID: fmt.Sprintf("r%02d", i), Input: img, Transforms: "cfi"}
		if i%3 == 1 {
			req.Transforms = "null"
		}
		if err := enc.Encode(req); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if err := runBatch(d, &in, &out, 4); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	var resps []response
	for sc.Scan() {
		var r response
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad response line: %v", err)
		}
		resps = append(resps, r)
	}
	if len(resps) != n {
		t.Fatalf("%d responses, want %d", len(resps), n)
	}
	for i, r := range resps {
		if want := fmt.Sprintf("r%02d", i); r.ID != want {
			t.Fatalf("response %d has id %q, want %q (order broken)", i, r.ID, want)
		}
		if r.Error != "" {
			t.Fatalf("response %s failed: %s", r.ID, r.Error)
		}
		if len(r.Output) == 0 {
			t.Fatalf("response %s has no output", r.ID)
		}
	}
	// Two distinct configs over one image: exactly two pipeline runs.
	if st := d.s.Stats(); st.PipelineRuns != 2 {
		t.Fatalf("pipeline runs = %d, want 2 (stats %+v)", st.PipelineRuns, st)
	}
	// Identical requests must agree byte-for-byte.
	if !bytes.Equal(resps[0].Output, resps[3].Output) {
		t.Fatal("identical cfi requests returned different bytes")
	}
}

// TestBatchTraceIDs: batch lines carry per-line trace IDs — supplied
// ones echo back on the matching response, absent ones are minted —
// and each line lands in the access log.
func TestBatchTraceIDs(t *testing.T) {
	d := newTestDaemon(t)
	var logBuf bytes.Buffer
	d.logW = &logBuf
	img := buildImage(t)

	var in bytes.Buffer
	enc := json.NewEncoder(&in)
	reqs := []request{
		{ID: "a", Trace: "batch-trace-a", Input: img, Transforms: "null"},
		{ID: "b", Input: img, Transforms: "null"},
	}
	for _, r := range reqs {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if err := runBatch(d, &in, &out, 2); err != nil {
		t.Fatal(err)
	}
	var resps []response
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		var r response
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatal(err)
		}
		resps = append(resps, r)
	}
	if len(resps) != 2 {
		t.Fatalf("%d responses, want 2", len(resps))
	}
	if resps[0].Trace != "batch-trace-a" {
		t.Fatalf("response a trace = %q, want echo of supplied ID", resps[0].Trace)
	}
	if resps[1].Trace == "" || resps[1].Trace == resps[0].Trace {
		t.Fatalf("response b trace = %q, want a fresh generated ID", resps[1].Trace)
	}
	logText := logBuf.String()
	for _, want := range []string{"batch-trace-a", resps[1].Trace} {
		if !strings.Contains(logText, want) {
			t.Fatalf("access log missing trace %q:\n%s", want, logText)
		}
	}
}

func TestBatchBadLines(t *testing.T) {
	d := newTestDaemon(t)
	in := strings.NewReader("this is not json\n" +
		`{"id":"ok","input":"` + "AAAA" + `","transforms":"null"}` + "\n")
	var out bytes.Buffer
	if err := runBatch(d, in, &out, 2); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d response lines, want 2", len(lines))
	}
	var r0, r1 response
	if err := json.Unmarshal([]byte(lines[0]), &r0); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &r1); err != nil {
		t.Fatal(err)
	}
	if r0.Error == "" || r0.Class != "usage" {
		t.Fatalf("bad line response = %+v, want usage error", r0)
	}
	if r1.Error == "" || r1.Class != "format" {
		t.Fatalf("junk image response = %+v, want format error", r1)
	}
}
