package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wormmesh/internal/sim"
)

// loadClients is the generator's concurrency: 2 goroutines over 2
// keep-alive connections, matching the 2-vCPU reference host (the
// generator shares those cores with the server under test).
const loadClients = 2

// client posts to one meshserve over a fixed pair of connections.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     loadClients,
			MaxIdleConnsPerHost: loadClients,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// reply is what one POST came back with. body aliases the caller's
// buffer and is valid until that buffer's next use.
type reply struct {
	status  int
	xcache  string
	traceID string
	body    []byte
}

// post sends one request and reads the whole response into buf.
func (c *client) post(path string, body []byte, buf *bytes.Buffer) (reply, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return reply{}, err
	}
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	return reply{
		status:  resp.StatusCode,
		xcache:  resp.Header.Get("X-Cache"),
		traceID: resp.Header.Get("X-Trace-Id"),
		body:    buf.Bytes(),
	}, nil
}

// requestBody renders the sparse POST /run body a client would send:
// only the fields that differ from the service's defaults.
func requestBody(p sim.Params) []byte {
	fields := map[string]any{
		"Width": p.Width, "Height": p.Height, "Algorithm": p.Algorithm,
		"Rate": p.Rate, "Seed": p.Seed,
		"WarmupCycles": p.WarmupCycles, "MeasureCycles": p.MeasureCycles,
	}
	if p.Faults > 0 {
		fields["Faults"], fields["FaultSeed"] = p.Faults, p.FaultSeed
	}
	body, err := json.Marshal(map[string]any{"params": fields})
	if err != nil {
		panic(err) // a map of numbers and strings always marshals
	}
	return body
}

// entryDigest extracts result_digest from a cached-entry response
// without decoding the whole document (the generator shares its cores
// with the server; a full decode per hit would distort both).
func entryDigest(body []byte) string {
	const tag = `"result_digest":"`
	i := bytes.Index(body, []byte(tag))
	if i < 0 {
		return ""
	}
	rest := body[i+len(tag):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return string(rest[:j])
}

// sample is one completed request as the generator saw it.
type sample struct {
	latency  time.Duration // from when the request was due (open loop) or sent (closed loop)
	lateness time.Duration // open loop: how long after its due time it was actually sent
	done     time.Duration // completion time since the phase started
	traceID  string
}

// phase is the outcome of one load phase.
type phase struct {
	samples []sample
	failed  []string // reasons, one per failed request
	wall    time.Duration
}

func (ph *phase) latenciesMS() []float64 {
	out := make([]float64, len(ph.samples))
	for i, s := range ph.samples {
		out[i] = ms(s.latency)
	}
	return out
}

// merge folds per-goroutine partial phases into one.
func merge(parts []phase, wall time.Duration) phase {
	out := phase{wall: wall}
	for _, p := range parts {
		out.samples = append(out.samples, p.samples...)
		out.failed = append(out.failed, p.failed...)
	}
	return out
}

// sendFunc issues request i and validates the reply; a non-nil error
// marks the request failed. It returns the response's trace ID.
type sendFunc func(i int, buf *bytes.Buffer) (traceID string, err error)

// openLoop fires len(due) requests on a fixed schedule — due[i] after
// the phase starts — regardless of how earlier ones fare. Each request
// is timed from its due time, so a stall is charged to every request it
// delays, and the gap between due and actual send is kept as lateness.
//
// One pacer goroutine watches the clock and hands each request to
// whichever client is free. It spins through the last two milliseconds
// before a due time: on the reference host a sleep overshoots by about
// a millisecond (no high-resolution timers), which would swamp a
// sub-millisecond hit.
func openLoop(due []time.Duration, send sendFunc) phase {
	parts := make([]phase, loadClients)
	work := make(chan int) // unbuffered: a request waits here only while both clients are busy
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < loadClients; g++ {
		wg.Add(1)
		go func(part *phase) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := range work {
				at := start.Add(due[i])
				sent := time.Now()
				id, err := send(i, &buf)
				if err != nil {
					part.failed = append(part.failed, err.Error())
					continue
				}
				now := time.Now()
				part.samples = append(part.samples, sample{latency: now.Sub(at), lateness: sent.Sub(at), done: now.Sub(start), traceID: id})
			}
		}(&parts[g])
	}
	for i := range due {
		at := start.Add(due[i])
		for {
			d := time.Until(at)
			if d <= 0 {
				break
			}
			if d > 2*time.Millisecond {
				time.Sleep(d - 2*time.Millisecond)
			} else {
				runtime.Gosched()
			}
		}
		work <- i
	}
	close(work)
	wg.Wait()
	return merge(parts, time.Since(start))
}

// closedLoop has each client send its next request as soon as the
// previous one completes, until the deadline; request indices are
// handed out in order across clients.
func closedLoop(length time.Duration, send sendFunc) phase {
	parts := make([]phase, loadClients)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(length)
	for g := 0; g < loadClients; g++ {
		wg.Add(1)
		go func(part *phase) {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				sent := time.Now()
				id, err := send(i, &buf)
				if err != nil {
					part.failed = append(part.failed, err.Error())
					continue
				}
				now := time.Now()
				part.samples = append(part.samples, sample{latency: now.Sub(sent), done: now.Sub(start), traceID: id})
			}
		}(&parts[g])
	}
	wg.Wait()
	return merge(parts, time.Since(start))
}

// tally folds a phase into the run's operation counts.
func (ph *phase) tally(res *results) {
	res.ops(int64(len(ph.samples)))
	for _, why := range ph.failed {
		res.op(fmt.Errorf("%s", why))
	}
}
