package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"time"
)

// httpClient keeps connections alive across requests; every client
// goroutine of the load generator shares it.
var httpClient = &http.Client{
	Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true},
	Timeout:   60 * time.Second,
}

// call sends one request and reads the whole answer. Any transport
// error or non-2xx status is an error carrying the status.
func call(method, url string, body []byte) ([]byte, error) {
	return callWith(method, url, body, nil)
}

// callWith is call with extra request headers.
func callWith(method, url string, body []byte, hdr map[string]string) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return data, fmt.Errorf("%s %s: status %d: %.200s", method, url, resp.StatusCode, data)
	}
	return data, nil
}

// waitReady repeats op until it succeeds, the daemon exits or the
// timeout passes, and returns the time from exec to that success.
func waitReady(d *daemon, timeout time.Duration, op func() error) (time.Duration, error) {
	deadline := d.started.Add(timeout)
	for {
		err := op()
		if err == nil {
			return time.Since(d.started), nil
		}
		if !d.alive() {
			return 0, fmt.Errorf("cerfixd exited during start-up: %v\n%s", err, d.logTail())
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("cerfixd not serving after %s: %v", timeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
