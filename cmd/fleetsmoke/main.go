// Command fleetsmoke is the end-to-end fleet drill `make fleet-smoke`
// runs: it builds ziprd, boots two worker daemons (each with its own
// disk cache) and a consistent-hash gateway over real TCP, plays a
// request set through the gateway, kills one worker mid-run, and
// verifies the fleet contract:
//
//   - every post-kill answer is byte-identical to its pre-kill answer
//     (failover may move work, never change it);
//   - the outage is visible in the gateway's metrics (fleet_retries or
//     an open circuit in /fleet);
//   - a worker restarted with an empty RAM cache answers a
//     previously-seen input from its disk tier without a pipeline run.
//
// It exits 0 on success and 1 with a diagnostic on any violation.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"zipr/internal/synth"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fleetsmoke:", err)
		os.Exit(1)
	}
	fmt.Println("fleetsmoke: ok")
}

// freePort reserves and releases a TCP port on the loopback.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// waitHealthy polls addr's /healthz until it answers or the budget
// runs out.
func waitHealthy(addr string) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("%s never became healthy", addr)
}

// daemonProc is one spawned ziprd.
type daemonProc struct {
	cmd  *exec.Cmd
	addr string
}

func start(bin string, addr string, args ...string) (*daemonProc, error) {
	cmd := exec.Command(bin, append([]string{"-listen", addr}, args...)...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &daemonProc{cmd: cmd, addr: addr}, nil
}

func (d *daemonProc) stop() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	d.cmd.Process.Kill()
	d.cmd.Wait()
}

// rewrite posts one input through addr and returns the response body.
func rewrite(addr string, input []byte) ([]byte, int, error) {
	resp, err := http.Post("http://"+addr+"/rewrite?transforms=cfi", "application/octet-stream", bytes.NewReader(input))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// statsOf decodes addr's /stats counters.
func statsOf(addr string) (map[string]json.RawMessage, error) {
	resp, err := http.Get("http://" + addr + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m map[string]json.RawMessage
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

func intStat(m map[string]json.RawMessage, key string) int64 {
	var v int64
	json.Unmarshal(m[key], &v)
	return v
}

func run() error {
	work, err := os.MkdirTemp("", "fleetsmoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	bin := filepath.Join(work, "ziprd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/ziprd")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("build ziprd: %w", err)
	}

	addrA, err := freePort()
	if err != nil {
		return err
	}
	addrB, err := freePort()
	if err != nil {
		return err
	}
	addrG, err := freePort()
	if err != nil {
		return err
	}
	diskA, diskB := filepath.Join(work, "diskA"), filepath.Join(work, "diskB")

	wa, err := start(bin, addrA, "-disk-cache", diskA)
	if err != nil {
		return err
	}
	defer wa.stop()
	wb, err := start(bin, addrB, "-disk-cache", diskB)
	if err != nil {
		return err
	}
	defer wb.stop()
	gw, err := start(bin, addrG, "-gateway", addrA+","+addrB)
	if err != nil {
		return err
	}
	defer gw.stop()
	for _, a := range []string{addrA, addrB, addrG} {
		if err := waitHealthy(a); err != nil {
			return err
		}
	}

	// Round 1: collect the fleet's answers while both workers are up,
	// sending fresh synthetic programs until both workers have run the
	// pipeline. The ring places the workers by the hash of their random
	// ports, so a few inputs can all land on one worker; the chance that
	// maxInputs do is negligible.
	const minInputs, maxInputs = 8, 32
	var inputs [][]byte
	var digests [][32]byte
	var runsA, runsB int64
	for len(inputs) < minInputs || runsA == 0 || runsB == 0 {
		if len(inputs) == maxInputs {
			return fmt.Errorf("load did not shard after %d inputs: pipeline runs %d/%d", maxInputs, runsA, runsB)
		}
		seed, prof := synth.CBProfile(len(inputs))
		b, err := synth.Build(seed, prof)
		if err != nil {
			return err
		}
		in, err := b.Marshal()
		if err != nil {
			return err
		}
		out, code, err := rewrite(addrG, in)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("round 1 input %d: status %d err %v", len(inputs), code, err)
		}
		inputs = append(inputs, in)
		digests = append(digests, sha256.Sum256(out))
		stA, err := statsOf(addrA)
		if err != nil {
			return err
		}
		stB, err := statsOf(addrB)
		if err != nil {
			return err
		}
		runsA, runsB = intStat(stA, "PipelineRuns"), intStat(stB, "PipelineRuns")
	}
	fmt.Printf("fleetsmoke: %d inputs sharded, pipeline runs %d/%d\n", len(inputs), runsA, runsB)

	// Kill worker A mid-run. Every answer must stay byte-identical —
	// served by B, rerunning the pipeline where it has to.
	wa.stop()
	for i, in := range inputs {
		out, code, err := rewrite(addrG, in)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("post-kill input %d: status %d err %v", i, code, err)
		}
		if sha256.Sum256(out) != digests[i] {
			return fmt.Errorf("post-kill input %d: answer diverged", i)
		}
	}
	// The outage is observable: retries counted, or A's circuit open.
	mresp, err := http.Get("http://" + addrG + "/metrics")
	if err != nil {
		return err
	}
	mraw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	fresp, err := http.Get("http://" + addrG + "/fleet")
	if err != nil {
		return err
	}
	fraw, _ := io.ReadAll(fresp.Body)
	fresp.Body.Close()
	if !bytes.Contains(mraw, []byte("zipr_fleet_retries")) {
		return fmt.Errorf("gateway /metrics lacks the fleet_retries family:\n%s", mraw)
	}
	if !bytes.Contains(fraw, []byte(`"open"`)) && !bytes.Contains(mraw, []byte("zipr_fleet_worker_up{")) {
		return fmt.Errorf("outage not visible in /fleet or worker-up gauges:\n%s", fraw)
	}

	// Restart worker B with an empty RAM cache on the same disk tier: a
	// previously-seen input must answer as a disk hit, no pipeline run.
	// After the kill round B served every input, so all of them are in
	// its disk tier; use the first.
	servedByB := 0
	wb.stop()
	wb2, err := start(bin, addrB, "-disk-cache", diskB)
	if err != nil {
		return err
	}
	defer wb2.stop()
	if err := waitHealthy(addrB); err != nil {
		return err
	}
	before, err := statsOf(addrB)
	if err != nil {
		return err
	}
	out, code, err := rewrite(addrB, inputs[servedByB])
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("restarted worker: status %d err %v", code, err)
	}
	if sha256.Sum256(out) != digests[servedByB] {
		return fmt.Errorf("restarted worker answered divergent bytes")
	}
	after, err := statsOf(addrB)
	if err != nil {
		return err
	}
	if intStat(after, "PipelineRuns") != intStat(before, "PipelineRuns") {
		return fmt.Errorf("restarted worker reran the pipeline instead of hitting its disk tier")
	}
	if intStat(after, "DiskHits") == 0 {
		return fmt.Errorf("restarted worker reported no disk hits")
	}
	return nil
}
