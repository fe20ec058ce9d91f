package obs

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// promParse is a minimal exposition-format checker shared by the
// self-check tests: it walks the body line by line and verifies the
// structural invariants — every sample belongs to a family whose
// # TYPE (and, when present, # HELP) header came first, names are
// zipr_-prefixed snake_case, histogram buckets are cumulative and
// monotone in le, and _count equals the +Inf bucket.
type promFamily struct {
	name, typ string
	hasHelp   bool
	samples   []promSample
}

type promSample struct {
	name   string
	labels map[string]string
	value  int64
}

func promParse(t *testing.T, body string) map[string]*promFamily {
	t.Helper()
	fams := make(map[string]*promFamily)
	var cur *promFamily
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		lineNo := ln + 1
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, found := strings.Cut(rest, " ")
			if !found {
				t.Fatalf("line %d: HELP without text: %q", lineNo, line)
			}
			if fams[name] != nil {
				t.Fatalf("line %d: duplicate HELP for %s", lineNo, name)
			}
			fams[name] = &promFamily{name: name, hasHelp: true}
			cur = fams[name]
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, found := strings.Cut(rest, " ")
			if !found {
				t.Fatalf("line %d: TYPE without type: %q", lineNo, line)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: invalid type %q", lineNo, typ)
			}
			f := fams[name]
			if f == nil {
				f = &promFamily{name: name}
				fams[name] = f
			} else if f.typ != "" {
				t.Fatalf("line %d: duplicate TYPE for %s", lineNo, name)
			}
			f.typ = typ
			cur = f
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unexpected comment %q", lineNo, line)
		}
		s := parseSample(t, lineNo, line)
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(s.name, "_bucket"), "_sum"), "_count")
		f := fams[base]
		if f == nil || f.typ == "" {
			t.Fatalf("line %d: sample %s before its TYPE header", lineNo, s.name)
		}
		if f != cur {
			t.Fatalf("line %d: sample %s interleaved outside its family block", lineNo, s.name)
		}
		if !strings.HasPrefix(s.name, "zipr_") {
			t.Fatalf("line %d: metric %q not zipr_-prefixed", lineNo, s.name)
		}
		for _, c := range s.name {
			if !(c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '_') {
				t.Fatalf("line %d: metric %q has invalid char %q", lineNo, s.name, c)
			}
		}
		f.samples = append(f.samples, s)
	}
	return fams
}

// parseSample parses `name{k="v",...} value`, unescaping label values.
func parseSample(t *testing.T, lineNo int, line string) promSample {
	t.Helper()
	s := promSample{labels: map[string]string{}}
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		s.name = rest[:i]
		rest = rest[i+1:]
		for {
			eq := strings.IndexByte(rest, '=')
			if eq < 0 || len(rest) < eq+2 || rest[eq+1] != '"' {
				t.Fatalf("line %d: bad label syntax: %q", lineNo, line)
			}
			key := rest[:eq]
			rest = rest[eq+2:]
			var val strings.Builder
			for {
				if rest == "" {
					t.Fatalf("line %d: unterminated label value: %q", lineNo, line)
				}
				c := rest[0]
				if c == '"' {
					rest = rest[1:]
					break
				}
				if c == '\\' {
					if len(rest) < 2 {
						t.Fatalf("line %d: dangling escape: %q", lineNo, line)
					}
					switch rest[1] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						t.Fatalf("line %d: invalid escape \\%c", lineNo, rest[1])
					}
					rest = rest[2:]
					continue
				}
				val.WriteByte(c)
				rest = rest[1:]
			}
			s.labels[key] = val.String()
			if strings.HasPrefix(rest, ",") {
				rest = rest[1:]
				continue
			}
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			t.Fatalf("line %d: bad label separator: %q", lineNo, line)
		}
		rest = strings.TrimPrefix(rest, " ")
	} else {
		i = strings.IndexByte(rest, ' ')
		if i < 0 {
			t.Fatalf("line %d: sample without value: %q", lineNo, line)
		}
		s.name, rest = rest[:i], rest[i+1:]
	}
	if rest == "" {
		t.Fatalf("line %d: missing value: %q", lineNo, line)
	}
	v, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
	if err != nil {
		t.Fatalf("line %d: bad value %q: %v", lineNo, rest, err)
	}
	s.value = v
	return s
}

// checkHistogram verifies cumulative bucket monotonicity and
// _sum/_count consistency for every series of a histogram family.
func checkHistogram(t *testing.T, f *promFamily) {
	t.Helper()
	type hseries struct {
		les    []string
		counts []int64
		sum    *int64
		count  *int64
		inf    *int64
	}
	series := map[string]*hseries{}
	seriesKey := func(labels map[string]string) string {
		var parts []string
		for k, v := range labels {
			if k != "le" {
				parts = append(parts, k+"="+v)
			}
		}
		// Deterministic order.
		for i := 0; i < len(parts); i++ {
			for j := i + 1; j < len(parts); j++ {
				if parts[j] < parts[i] {
					parts[i], parts[j] = parts[j], parts[i]
				}
			}
		}
		return strings.Join(parts, ",")
	}
	for _, s := range f.samples {
		hs := series[seriesKey(s.labels)]
		if hs == nil {
			hs = &hseries{}
			series[seriesKey(s.labels)] = hs
		}
		v := s.value
		switch {
		case strings.HasSuffix(s.name, "_bucket"):
			le := s.labels["le"]
			if le == "" {
				t.Fatalf("%s: bucket sample without le", f.name)
			}
			if le == "+Inf" {
				hs.inf = &v
			} else {
				hs.les = append(hs.les, le)
				hs.counts = append(hs.counts, v)
			}
		case strings.HasSuffix(s.name, "_sum"):
			hs.sum = &v
		case strings.HasSuffix(s.name, "_count"):
			hs.count = &v
		default:
			t.Fatalf("%s: unexpected histogram sample %s", f.name, s.name)
		}
	}
	for key, hs := range series {
		if hs.inf == nil || hs.sum == nil || hs.count == nil {
			t.Fatalf("%s{%s}: missing +Inf/_sum/_count", f.name, key)
		}
		if *hs.count != *hs.inf {
			t.Fatalf("%s{%s}: _count %d != +Inf bucket %d", f.name, key, *hs.count, *hs.inf)
		}
		prevLe := int64(-1 << 62)
		prevCount := int64(0)
		for i, le := range hs.les {
			lv, err := strconv.ParseInt(le, 10, 64)
			if err != nil {
				t.Fatalf("%s{%s}: bad le %q", f.name, key, le)
			}
			if lv <= prevLe {
				t.Fatalf("%s{%s}: le not increasing: %d after %d", f.name, key, lv, prevLe)
			}
			if hs.counts[i] < prevCount {
				t.Fatalf("%s{%s}: bucket counts not monotone at le=%s", f.name, key, le)
			}
			prevLe, prevCount = lv, hs.counts[i]
		}
		if prevCount > *hs.inf {
			t.Fatalf("%s{%s}: finite bucket %d exceeds +Inf %d", f.name, key, prevCount, *hs.inf)
		}
	}
}

// TestPromExpositionSelfCheck renders a registry with every family
// kind — including hostile label values — and validates the body
// line by line.
func TestPromExpositionSelfCheck(t *testing.T) {
	r := NewRegistry()
	total := r.Counter("serve.request.total", "requests by outcome", "outcome")
	total.With("hit").Add(12)
	total.With("miss").Add(3)
	total.With(`quo"te\back` + "\nnewline").Add(1) // escaping
	r.Gauge("serve.queue.depth", "requests waiting").With().Set(2)
	r.CounterFunc("serve.pipeline.runs", "pipeline executions", func() int64 { return 9 })
	r.GaugeFunc("serve.cache.bytes", "cached output bytes", func() int64 { return 4096 })
	h := r.Window("serve.input.bytes", "input sizes", time.Minute, "kind")
	for _, v := range []int64{0, 1, 2, 7, 8, 4096} {
		h.With("zelf").Observe(v)
	}
	w := r.Window("serve.request.latency", "request wall micros", time.Minute, "outcome")
	for i := int64(1); i <= 100; i++ {
		w.With("hit").Observe(i)
	}

	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	fams := promParse(t, body)

	ct := fams["zipr_serve_request_total"]
	if ct == nil || ct.typ != "counter" || !ct.hasHelp {
		t.Fatalf("request.total family = %+v", ct)
	}
	var gotEscape bool
	for _, s := range ct.samples {
		if s.labels["outcome"] == `quo"te\back`+"\nnewline" {
			gotEscape = true
		}
	}
	if !gotEscape {
		t.Fatalf("escaped label value did not round-trip:\n%s", body)
	}

	hist := fams["zipr_serve_input_bytes"]
	if hist == nil || hist.typ != "histogram" {
		t.Fatalf("input.bytes family = %+v", hist)
	}
	checkHistogram(t, hist)

	// Window family: lifetime histogram plus rolling-quantile gauges.
	lat := fams["zipr_serve_request_latency"]
	if lat == nil || lat.typ != "histogram" {
		t.Fatalf("latency family = %+v", lat)
	}
	checkHistogram(t, lat)
	for _, suffix := range []string{"_p50", "_p95", "_p99"} {
		qf := fams["zipr_serve_request_latency"+suffix]
		if qf == nil || qf.typ != "gauge" || len(qf.samples) != 1 {
			t.Fatalf("quantile family %s = %+v", suffix, qf)
		}
	}
	// 1..100 uniform: p50 near 64-bucket, p99 <= 127, both nonzero.
	p50 := fams["zipr_serve_request_latency_p50"].samples[0].value
	p99 := fams["zipr_serve_request_latency_p99"].samples[0].value
	if p50 <= 0 || p99 <= 0 || p50 > p99 || p99 > 127 {
		t.Fatalf("quantiles p50=%d p99=%d implausible for 1..100", p50, p99)
	}

	for name, want := range map[string]string{"zipr_serve_pipeline_runs": "counter", "zipr_serve_cache_bytes": "gauge"} {
		if f := fams[name]; f == nil || f.typ != want || !f.hasHelp || len(f.samples) != 1 {
			t.Fatalf("function family %s = %+v, want one %s sample with HELP", name, f, want)
		}
	}
	if !strings.Contains(body, "zipr_serve_pipeline_runs 9\n") || !strings.Contains(body, "zipr_serve_cache_bytes 4096\n") {
		t.Fatalf("function family samples missing:\n%s", body)
	}
	if !strings.Contains(body, `zipr_serve_request_total{outcome="hit"} 12`) {
		t.Fatalf("missing plain counter sample:\n%s", body)
	}
}

func TestPromNameMapping(t *testing.T) {
	cases := map[string]string{
		"serve.request.latency":  "zipr_serve_request_latency",
		"reassemble.free-blocks": "zipr_reassemble_free_blocks",
		"Weird Name!":            "zipr_weird_name_",
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestPromConcurrentHammer drives labeled families from 8 goroutines
// while a scraper renders the exposition — run under -race (make race
// covers it), this is the registry's concurrency contract test.
func TestPromConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	total := r.Counter("stress.total", "", "worker")
	lat := r.Window("stress.latency", "", time.Minute, "worker")
	depth := r.Gauge("stress.depth", "")
	const workers, iters = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			label := fmt.Sprintf("w%d", w)
			c := total.With(label)
			o := lat.With(label)
			g := depth.With()
			for i := 0; i < iters; i++ {
				c.Add(1)
				o.Observe(int64(i))
				g.Set(int64(i))
				if i%100 == 0 {
					total.With(label).Add(0) // concurrent With on a hot family
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if err := r.WriteProm(io.Discard); err != nil {
				t.Error(err)
				return
			}
			_ = r.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	var sum int64
	for _, fam := range r.Snapshot() {
		if fam.Name == "stress.total" {
			for _, s := range fam.Series {
				sum += s.Value
			}
		}
	}
	if sum != workers*iters {
		t.Fatalf("total = %d, want %d", sum, workers*iters)
	}
}
