package obs

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func sseTracker() *ProgressTracker {
	tracker := NewProgressTracker()
	tracker.Register(1, func() Progress {
		return Progress{Job: 1, Name: "job", Steps: 42}
	})
	return tracker
}

// TestStreamStatuszHeaders asserts the SSE hardening headers: no-store
// (never cache a stream) and X-Accel-Buffering (no proxy buffering).
func TestStreamStatuszHeaders(t *testing.T) {
	srv := httptest.NewServer(NewHTTPMux(sseTracker(), nil, nil))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/statusz/stream?interval_ms=50", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "text/event-stream" {
		t.Errorf("Content-Type = %q, want text/event-stream", got)
	}
	if got := resp.Header.Get("Cache-Control"); got != "no-store" {
		t.Errorf("Cache-Control = %q, want no-store", got)
	}
	if got := resp.Header.Get("X-Accel-Buffering"); got != "no" {
		t.Errorf("X-Accel-Buffering = %q, want no", got)
	}
	// First event arrives immediately.
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "data: ") {
			if !strings.Contains(sc.Text(), `"jobs"`) {
				t.Errorf("first event %q carries no jobs field", sc.Text())
			}
			return
		}
	}
	t.Fatalf("no data event before stream end: %v", sc.Err())
}

// TestStreamStatuszHeartbeat asserts the periodic `: heartbeat` comment
// keeps flowing between data events.
func TestStreamStatuszHeartbeat(t *testing.T) {
	srv := httptest.NewServer(NewHTTPMux(sseTracker(), nil, nil))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Data events far apart, heartbeats at the floor: the next line after
	// the first event should be a heartbeat comment.
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		srv.URL+"/statusz/stream?interval_ms=5000&heartbeat_ms=50", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), ": heartbeat") {
			return
		}
	}
	t.Fatalf("no heartbeat comment before stream end: %v", sc.Err())
}

// TestStreamStatuszClientDisconnect proves the handler goroutine exits
// when the client goes away: Server.Close blocks until every outstanding
// handler returns, so a leaked stream goroutine turns into a test
// timeout (and a leaked ticker into a race-detector report).
func TestStreamStatuszClientDisconnect(t *testing.T) {
	srv := httptest.NewServer(NewHTTPMux(sseTracker(), nil, nil))

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		srv.URL+"/statusz/stream?interval_ms=50&heartbeat_ms=50", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one event so the handler is demonstrably inside its loop.
	sc := bufio.NewScanner(resp.Body)
	seen := false
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "data: ") {
			seen = true
			break
		}
	}
	if !seen {
		t.Fatalf("no data event before stream end: %v", sc.Err())
	}

	// Drop the client.
	cancel()
	resp.Body.Close()

	done := make(chan struct{})
	go func() {
		srv.Close() // waits for outstanding handlers
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("server close timed out: stream handler leaked after client disconnect")
	}
}

// TestStreamStatuszBadParams covers the 400 paths for both interval knobs.
func TestStreamStatuszBadParams(t *testing.T) {
	srv := httptest.NewServer(NewHTTPMux(sseTracker(), nil, nil))
	defer srv.Close()
	for _, q := range []string{"interval_ms=bogus", "interval_ms=-1", "heartbeat_ms=bogus", "heartbeat_ms=-1"} {
		resp, err := http.Get(srv.URL + "/statusz/stream?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("?%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}
