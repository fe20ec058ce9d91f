package obs

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"time"
)

// Prometheus text-exposition rendering of a Registry (format version
// 0.0.4, the text/plain scrape format). Dotted family names map to
// zipr_-prefixed snake_case ("serve.request.latency" ->
// "zipr_serve_request_latency"); label values are escaped per the
// format (backslash, double quote and newline).
//
// Shapes:
//
//	counter  -> TYPE counter, one sample per series
//	gauge    -> TYPE gauge, one sample per series
//	window   -> the lifetime totals render as a TYPE histogram (proper
//	            cumulative semantics for rate()-style queries):
//	            cumulative _bucket{le="..."} samples on the pow2 bucket
//	            upper bounds (le="0", "1", "3", "7", ..., "+Inf"), plus
//	            _sum and _count; the rolling-window quantiles render as
//	            three extra gauge families suffixed _p50/_p95/_p99
//
// PromContentType is the Content-Type to serve the rendering under.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromName maps a dotted family name to its exposition metric name:
// "zipr_" prefix, [a-z0-9] kept, every other byte (dots, dashes)
// mapped to '_'.
func PromName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 5)
	b.WriteString("zipr_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
			b.WriteByte(c)
		case c >= 'A' && c <= 'Z':
			b.WriteByte(c - 'A' + 'a')
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabelValue escapes a label value per the exposition format.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string (backslash and newline only).
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// promLabels renders {k="v",...} for parallel name/value slices, with
// an optional extra pair appended (the histogram le label). Returns ""
// when there are no pairs at all.
func promLabels(names, values []string, extraK, extraV string) string {
	if len(names) == 0 && extraK == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, names[i], escapeLabelValue(values[i]))
	}
	if extraK != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraK, escapeLabelValue(extraV))
	}
	b.WriteByte('}')
	return b.String()
}

// WriteProm renders the registry in the Prometheus text exposition
// format: families in registration order, series in creation order.
// Nil-safe (writes nothing).
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		fams = append(fams, r.families[name])
	}
	now := r.now()
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if err := f.writeProm(bw, now); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func (f *family) writeProm(w *bufio.Writer, now time.Time) error {
	fv := f.read()
	f.mu.Lock()
	defer f.mu.Unlock()
	name := PromName(f.name)
	switch f.kind {
	case kindCounter, kindGauge:
		writeHeader(w, name, f.help, f.kind.String())
		for _, key := range f.order {
			s := f.series[key]
			s.mu.Lock()
			v := s.val
			s.mu.Unlock()
			if f.fn != nil {
				v = fv
			}
			fmt.Fprintf(w, "%s%s %d\n", name, promLabels(f.labels, s.labels, "", ""), v)
		}
	case kindWindow:
		writeHeader(w, name, f.help, "histogram")
		type quant struct {
			suffix string
			q      float64
		}
		quants := []quant{{"_p50", 0.50}, {"_p95", 0.95}, {"_p99", 0.99}}
		merged := make([]Hist, 0, len(f.order))
		for _, key := range f.order {
			s := f.series[key]
			s.mu.Lock()
			life := s.win.life
			merged = append(merged, s.win.merged(now))
			s.mu.Unlock()
			writePromHist(w, name, f.labels, s.labels, &life)
		}
		for _, qu := range quants {
			writeHeader(w, name+qu.suffix, f.help+" (rolling "+qu.suffix[2:]+")", "gauge")
			for i, key := range f.order {
				s := f.series[key]
				fmt.Fprintf(w, "%s%s%s %d\n", name, qu.suffix,
					promLabels(f.labels, s.labels, "", ""), merged[i].Quantile(qu.q))
			}
		}
	}
	return nil
}

func writeHeader(w *bufio.Writer, name, help, typ string) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(help))
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
}

// writePromHist renders one histogram series: cumulative buckets on
// the pow2 upper bounds (bucket 0 covers v <= 0, bucket i >= 1 covers
// [2^(i-1), 2^i) so its inclusive upper bound is 2^i - 1), trimmed to
// the highest non-empty bucket, then +Inf, _sum and _count.
func writePromHist(w *bufio.Writer, name string, labelNames, labelValues []string, h *Hist) {
	high := 0
	for i, c := range h.Buckets {
		if c != 0 {
			high = i
		}
	}
	var cum int64
	for i := 0; i <= high; i++ {
		cum += h.Buckets[i]
		var le string
		if i == 0 {
			le = "0"
		} else {
			le = fmt.Sprintf("%d", (int64(1)<<uint(i))-1)
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, promLabels(labelNames, labelValues, "le", le), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, promLabels(labelNames, labelValues, "le", "+Inf"), h.Count)
	base := promLabels(labelNames, labelValues, "", "")
	fmt.Fprintf(w, "%s_sum%s %d\n", name, base, h.Sum)
	fmt.Fprintf(w, "%s_count%s %d\n", name, base, h.Count)
}
