package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	repro "repro"
	"repro/internal/serve"
)

// loopback is an in-process HTTP server on 127.0.0.1.
type loopback struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func serveLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(lb.done)
		lb.srv.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return lb, nil
}

// close stops the server, dropping open connections, and waits for its
// accept loop to exit.
func (lb *loopback) close() {
	lb.srv.Close()
	<-lb.done
}

// newClient is the load generator's HTTP client: at most two connections
// to the target, one per caller.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 2,
		MaxConnsPerHost:     2,
		DisableCompression:  true,
	}}
}

// jobResponse is the part of serve.Response the benchmark reads.
type jobResponse struct {
	QueueWaitMS float64 `json:"queue_wait_ms"`
	ServiceMS   float64 `json:"service_ms"`
	Report      *struct {
		Passive  bool
		MaxSigma float64
	} `json:"report"`
}

// call is one job as the client saw it.
type call struct {
	resp      jobResponse
	latMS     float64
	respBytes int
	err       error
}

// post sends one pre-encoded job request and decodes the reply.
func post(cli *http.Client, url string, body []byte) call {
	start := time.Now()
	r, err := cli.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return call{err: err}
	}
	raw, err := io.ReadAll(r.Body)
	r.Body.Close()
	c := call{respBytes: len(raw)}
	if err != nil {
		c.err = err
		return c
	}
	if r.StatusCode != http.StatusOK {
		c.err = fmt.Errorf("HTTP %d: %s", r.StatusCode, bytes.TrimSpace(raw))
		return c
	}
	if err := json.Unmarshal(raw, &c.resp); err != nil {
		c.err = fmt.Errorf("decoding response: %w", err)
	}
	c.latMS = msSince(start)
	return c
}

// checkBody encodes a /v1/check request for a model.
func checkBody(m *repro.Macromodel, check serve.CheckSpec) ([]byte, error) {
	return json.Marshal(serve.Request{Model: m, Check: check})
}

// scrape reads the unlabelled counters and gauges of a Prometheus text
// endpoint.
func scrape(cli *http.Client, url string) (map[string]float64, error) {
	r, err := cli.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer r.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(r.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}
