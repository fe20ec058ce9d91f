package zipr_test

// Fleet golden gate: the same golden cells answered through a gateway
// fronting two worker daemons must produce the digests pinned in
// testdata/golden/corpus.json — sharded serving may move work between
// workers but may never change a byte. The delta leg repeats the
// check for an edited input so snapshot-patched answers are held to
// the same standard across the fleet.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strconv"
	"strings"
	"testing"

	"zipr"
	"zipr/internal/asm"
	"zipr/internal/cgcsim"
	"zipr/internal/fleet"
	"zipr/internal/isa"
	"zipr/internal/obs"
	"zipr/internal/serve"
	"zipr/internal/synth"
)

// fleetGoldenSpecs mirrors serveGoldenConfigs in wire form: the
// transform spec, layout, and seed query parameters a client would
// send. Both the gateway's routing key and the worker's rewrite build
// their Config with zipr.ParseConfig, so the specs must round-trip to
// the same configs serveGoldenConfigs builds directly.
func fleetGoldenSpecs() map[string]string {
	return map[string]string{
		"null/optimized": "transforms=null",
		"cfi/optimized":  "transforms=cfi",
		"full/diversity": "transforms=stir:0x57123,nop-elide,stackpad:48,canary:0xA5A5A5A5,cfi&layout=diversity&seed=24789",
	}
}

// wireConfig builds a query's Config as cmd/ziprd does.
func wireConfig(q url.Values) (zipr.Config, error) {
	var seed int64
	if v := q.Get("seed"); v != "" {
		var err error
		if seed, err = strconv.ParseInt(v, 10, 64); err != nil {
			return zipr.Config{}, err
		}
	}
	return zipr.ParseConfig(q.Get("transforms"), q.Get("layout"), q.Get("arbitration"), q.Get("isa"), seed)
}

// fleetWorker is a minimal worker daemon: /rewrite with the ziprd
// query-parameter contract over one serve.Server, /healthz for the
// gateway's probes.
func fleetWorker(t testing.TB, s *serve.Server) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/rewrite", func(w http.ResponseWriter, r *http.Request) {
		input, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		cfg, err := wireConfig(r.URL.Query())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		out, _, err := s.Rewrite(r.Context(), input, cfg)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(out)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// newGoldenFleet builds a gateway over two fresh workers and returns
// its handler plus the gateway for metric assertions.
func newGoldenFleet(t testing.TB) (http.Handler, *fleet.Gateway) {
	t.Helper()
	sa := serve.New(serve.Options{Workers: 2})
	t.Cleanup(sa.Close)
	sb := serve.New(serve.Options{Workers: 2})
	t.Cleanup(sb.Close)
	return goldenFleetOver(t, sa, sb)
}

// goldenFleetOver builds a gateway over two workers serving sa and sb.
func goldenFleetOver(t testing.TB, sa, sb *serve.Server) (http.Handler, *fleet.Gateway) {
	t.Helper()
	wa, wb := fleetWorker(t, sa), fleetWorker(t, sb)
	reg := obs.NewRegistry()
	g := fleet.New(fleet.Config{
		Workers: []string{
			strings.TrimPrefix(wa.URL, "http://"),
			strings.TrimPrefix(wb.URL, "http://"),
		},
		Registry: reg,
	})
	return g.Handler(reg), g
}

// fleetRewrite sends one request through the gateway handler.
func fleetRewrite(t testing.TB, h http.Handler, input []byte, query string) []byte {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/rewrite?"+query, bytes.NewReader(input))
	req.RemoteAddr = "198.51.100.7:4242"
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("gateway status %d: %s", rr.Code, rr.Body.String())
	}
	return rr.Body.Bytes()
}

func TestGoldenThroughFleet(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden/corpus.json")
	if err != nil {
		t.Fatalf("golden file missing (%v); generate it with: go test -run TestGoldenCorpus -update .", err)
	}
	var pinned struct {
		Cells map[string]struct {
			Image string `json:"image"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(raw, &pinned); err != nil {
		t.Fatal(err)
	}
	indices := []int{0, 17, 38, synth.PathologicalCB}
	corpus, err := cgcsim.Corpus(synth.CorpusSize, nil)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := newGoldenFleet(t)

	// Sanity: the wire specs round-trip to the exact configs the
	// single-server golden gate uses, so both gates pin the same cells.
	direct := serveGoldenConfigs()
	for cell, query := range fleetGoldenSpecs() {
		q, err := url.ParseQuery(query)
		if err != nil {
			t.Fatal(err)
		}
		got, err := wireConfig(q)
		if err != nil {
			t.Fatalf("%s: query does not parse: %v", cell, err)
		}
		if got.Fingerprint() != direct[cell].Fingerprint() {
			t.Fatalf("%s: wire spec fingerprint drifted from serveGoldenConfigs", cell)
		}
	}

	for _, idx := range indices {
		cb := corpus[idx]
		input, err := cb.Bin.Marshal()
		if err != nil {
			t.Fatalf("%s: marshal: %v", cb.Name, err)
		}
		for cell, query := range fleetGoldenSpecs() {
			key := cb.Name + "/" + cell
			want, ok := pinned.Cells[key]
			if !ok {
				t.Errorf("%s: not pinned in golden file", key)
				continue
			}
			// Cold (a worker's pipeline run) and hot (that worker's
			// cache) must both pin; routing is deterministic, so the
			// repeat lands on the same worker.
			for _, label := range []string{"cold", "hot"} {
				out := fleetRewrite(t, h, input, query)
				sum := sha256.Sum256(out)
				if got := hex.EncodeToString(sum[:]); got != want.Image {
					t.Errorf("%s: %s fleet answer drifted from pinned image digest\n  pinned %s\n  got    %s",
						key, label, want.Image, got)
					break
				}
			}
		}
	}
}

// TestGoldenFleetDelta: an edited input answered through the fleet —
// whichever worker it shards to, and whether or not that worker holds
// the base's placement snapshot — matches a from-scratch rewrite
// byte for byte, on each ISA. Both workers together answer at least one
// of the edits from a snapshot.
func TestGoldenFleetDelta(t *testing.T) {
	seed := int64(0xDE17A)
	prof := synth.Profile{
		Name: "fvd", NumFuncs: 12, OpsMin: 4, OpsMax: 10,
		DataWords: 32, InputLen: 4, LoopIters: 3,
	}
	for _, arch := range []isa.Arch{isa.ZVM32, isa.ZVM64} {
		t.Run(arch.Name(), func(t *testing.T) {
			src := synth.GenerateArch(seed, prof, arch)
			build := func(s string) []byte {
				bin, err := asm.AssembleArch(s, arch)
				if err != nil {
					t.Fatalf("assemble: %v", err)
				}
				img, err := bin.Marshal()
				if err != nil {
					t.Fatalf("marshal: %v", err)
				}
				return img
			}
			base := build(src)
			cfg := zipr.Config{Transforms: []zipr.Transform{zipr.CFI()}}
			query := "transforms=cfi"
			if arch == isa.ZVM64 {
				cfg.ISA = "zvm64"
				query += "&isa=zvm64"
			}

			sa, sb := serve.New(serve.Options{Workers: 2}), serve.New(serve.Options{Workers: 2})
			t.Cleanup(sa.Close)
			t.Cleanup(sb.Close)
			h, _ := goldenFleetOver(t, sa, sb)
			// Seed whichever worker owns the base, then send edits until
			// both workers' ancestry has been exercised.
			fleetRewrite(t, h, base, query)
			for ms := int64(0); ms < 4; ms++ {
				msrc, n := synth.MutateConsts(src, 0x70AD+ms, 1)
				if n != 1 {
					t.Fatalf("mutated %d functions, want 1", n)
				}
				edited := build(msrc)
				got := fleetRewrite(t, h, edited, query)
				want, _, err := zipr.Rewrite(edited, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("edit %d: fleet answer diverged from a from-scratch rewrite", ms)
				}
			}
			if d := sa.Stats().DeltaHits + sb.Stats().DeltaHits; d == 0 {
				t.Fatal("no edit was answered from a placement snapshot")
			}
		})
	}
}
