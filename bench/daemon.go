package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one assocmined subprocess driven through its public HTTP API.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	hc      *http.Client
	drained chan struct{} // closed once the daemon's stdout is read to EOF
	logTail *bytes.Buffer // written only by the stdout reader until drained
}

// clientConns caps the benchmark's connections (and load-generating
// goroutines) at the host's two CPUs.
const clientConns = 2

// startDaemon runs bin with its defaults plus a loopback ephemeral port
// and dataDir as its store, and returns once /healthz answers.
func startDaemon(ctx context.Context, bin, dataDir string) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data-dir", dataDir)
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{}), logTail: new(bytes.Buffer),
		hc: &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
			MaxIdleConnsPerHost: clientConns, MaxConnsPerHost: clientConns}}}
	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "assocmined listening on "); ok {
				a, _, _ := strings.Cut(rest, " ")
				addr <- a
			}
			if d.logTail.Len() < 1<<16 {
				d.logTail.WriteString(line + "\n")
			}
		}
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.drained:
		_ = cmd.Wait()
		return nil, fmt.Errorf("assocmined exited before listening:\n%s", d.logTail)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("assocmined did not report its address within 30s")
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
	for {
		resp, err := d.hc.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// stop asks the daemon to drain and exit, kills it if it has not after
// ten seconds, and returns once the process and its output reader are gone.
func (d *daemon) stop() {
	d.hc.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		<-d.drained
		_ = d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// jobView is the part of the daemon's job JSON the benchmark reads.
type jobView struct {
	ID          string      `json:"id"`
	Status      string      `json:"status"`
	Cached      bool        `json:"cached"`
	Error       string      `json:"error"`
	Created     time.Time   `json:"created"`
	Started     time.Time   `json:"started"`
	Finished    time.Time   `json:"finished"`
	QueueWaitNS int64       `json:"queueWaitNs"`
	DurationNS  int64       `json:"durationNs"`
	Phases      []phaseSpan `json:"phases"`
	OutOfCore   bool        `json:"outOfCore"`
}

func (v jobView) terminal() bool {
	return v.Status == "done" || v.Status == "failed" || v.Status == "canceled"
}

// do sends one request and decodes a JSON response into v (when non-nil),
// or copies the body into buf (when non-nil). Any non-2xx status is an
// error carrying the body.
func (d *daemon) do(ctx context.Context, method, path string, body any, v any, buf *bytes.Buffer) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	switch {
	case buf != nil:
		_, err = buf.ReadFrom(resp.Body)
		return err
	case v != nil:
		return json.NewDecoder(resp.Body).Decode(v)
	default:
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
}

// jobTiming is what one job's round trip cost the client.
type jobTiming struct {
	submit, result time.Duration // the POST, and the result GET until the last body byte
	polls          int
}

// runJob submits spec, polls until the job is terminal and reads its
// result body into buf. The poll interval grows with the job's age (1/20
// of it, within 1–20 ms), so a poll lands within ~5% of completion
// without flooding the daemon while it mines.
func (d *daemon) runJob(ctx context.Context, spec jobSpec, buf *bytes.Buffer) (jobView, jobTiming, error) {
	var v jobView
	var tm jobTiming
	start := time.Now()
	if err := d.do(ctx, http.MethodPost, "/v1/jobs", spec, &v, nil); err != nil {
		return v, tm, err
	}
	tm.submit = time.Since(start)
	for !v.terminal() {
		wait := min(max(time.Since(start)/20, time.Millisecond), 20*time.Millisecond)
		select {
		case <-ctx.Done():
			return v, tm, ctx.Err()
		case <-time.After(wait):
		}
		tm.polls++
		if err := d.do(ctx, http.MethodGet, "/v1/jobs/"+v.ID, nil, &v, nil); err != nil {
			return v, tm, err
		}
	}
	if v.Status != "done" {
		return v, tm, fmt.Errorf("job %s %s: %s", v.ID, v.Status, v.Error)
	}
	buf.Reset()
	rs := time.Now()
	err := d.do(ctx, http.MethodGet, "/v1/jobs/"+v.ID+"/result", nil, nil, buf)
	tm.result = time.Since(rs)
	return v, tm, err
}

// statsz is the part of /statsz the benchmark reads.
type statsz struct {
	Cache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
}

func (d *daemon) stats(ctx context.Context) (statsz, error) {
	var s statsz
	err := d.do(ctx, http.MethodGet, "/statsz", nil, &s, nil)
	return s, err
}

// counters reads /metricsz (expvar-style JSON) as name → value; see
// flattenMetrics.
func (d *daemon) counters(ctx context.Context) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := d.do(ctx, http.MethodGet, "/metricsz", nil, nil, &buf); err != nil {
		return nil, err
	}
	return flattenMetrics(buf.Bytes())
}

// usage reads the daemon's CPU time from /proc and its cumulative heap
// allocation from the runtime.MemStats dump at the end of
// /debug/pprof/heap?debug=1.
func (d *daemon) usage(ctx context.Context) (usage, error) {
	var buf bytes.Buffer
	if err := d.do(ctx, http.MethodGet, "/debug/pprof/heap?debug=1", nil, nil, &buf); err != nil {
		return usage{}, err
	}
	cpu, err := cpuTime(d.pid())
	if err != nil {
		return usage{}, err
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "# TotalAlloc = "); ok {
			alloc, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
			return usage{cpu: cpu, alloc: alloc}, err
		}
	}
	return usage{}, errors.New("no TotalAlloc in /debug/pprof/heap output")
}

// flattenMetrics turns the registry's JSON exposition into name → value:
// counters and gauges by name, histograms as name.count and name.sum.
func flattenMetrics(b []byte) (map[string]float64, error) {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		return nil, fmt.Errorf("metrics JSON: %w", err)
	}
	out := make(map[string]float64, len(raw))
	for name, v := range raw {
		var x float64
		if json.Unmarshal(v, &x) == nil {
			out[name] = x
			continue
		}
		var h struct {
			Count float64 `json:"count"`
			Sum   float64 `json:"sum"`
		}
		if json.Unmarshal(v, &h) == nil {
			out[name+".count"] = h.Count
			out[name+".sum"] = h.Sum
		}
	}
	return out, nil
}
