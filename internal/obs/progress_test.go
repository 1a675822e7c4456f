package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestProgressTrackerLifecycle(t *testing.T) {
	tr := NewProgressTracker()
	var steps int64
	tr.Register(2, func() Progress { return Progress{Job: 2, Name: "b", Steps: steps} })
	tr.Register(1, func() Progress { return Progress{Job: 1, Name: "a", Steps: 7} })

	steps = 5
	snap := tr.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d jobs, want 2", len(snap))
	}
	if snap[0].Job != 1 || snap[1].Job != 2 {
		t.Fatalf("snapshot not sorted by job: %+v", snap)
	}
	if snap[1].Steps != 5 || snap[1].Done {
		t.Fatalf("live sample wrong: %+v", snap[1])
	}

	tr.Finish(2, Progress{Job: 2, Name: "b", Steps: 9})
	snap = tr.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d jobs after finish, want 2", len(snap))
	}
	if !snap[1].Done || snap[1].Steps != 9 {
		t.Fatalf("final snapshot wrong: %+v", snap[1])
	}
}

func TestProgressTrackerNilInert(t *testing.T) {
	var tr *ProgressTracker
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Register(1, nil)
		tr.Finish(1, Progress{})
	})
	if allocs != 0 {
		t.Fatalf("nil tracker register/finish allocates %.1f/op, want 0", allocs)
	}
	if tr.Snapshot() != nil {
		t.Fatal("nil tracker snapshot not nil")
	}
}

func TestStatuszEndpoint(t *testing.T) {
	tr := NewProgressTracker()
	tr.Register(1, func() Progress { return Progress{Job: 1, Name: "w", Steps: 3, Pending: 2} })
	mux := NewHTTPMux(NewRegistry(), tr, NewFlightRecorder(16), nil)

	req := httptest.NewRequest("GET", "/statusz", nil)
	rw := httptest.NewRecorder()
	mux.ServeHTTP(rw, req)
	if rw.Code != 200 {
		t.Fatalf("/statusz status %d", rw.Code)
	}
	var s Statusz
	if err := json.Unmarshal(rw.Body.Bytes(), &s); err != nil {
		t.Fatalf("/statusz not JSON: %v\n%s", err, rw.Body.String())
	}
	if len(s.Jobs) != 1 || s.Jobs[0].Steps != 3 || s.Jobs[0].Pending != 2 {
		t.Fatalf("statusz payload wrong: %+v", s)
	}
	if s.NowUnixNs == 0 {
		t.Fatal("statusz missing timestamp")
	}
}

func TestStatuszStreamSSE(t *testing.T) {
	tr := NewProgressTracker()
	tr.Register(4, func() Progress { return Progress{Job: 4, Steps: 11} })
	mux := NewHTTPMux(nil, tr, nil, nil)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", srv.URL+"/statusz/stream?interval_ms=50", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	events := 0
	for sc.Scan() && events < 2 {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var s Statusz
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &s); err != nil {
			t.Fatalf("SSE event not JSON: %v\n%s", err, line)
		}
		if len(s.Jobs) != 1 || s.Jobs[0].Steps != 11 {
			t.Fatalf("SSE payload wrong: %+v", s)
		}
		events++
	}
	if events < 2 {
		t.Fatalf("read %d SSE events, want >= 2 (scan err %v)", events, sc.Err())
	}
}

func TestFlightzAndQuit(t *testing.T) {
	rec := NewFlightRecorder(16)
	rec.Record("step", 1, 1, "k", "")
	quit := make(chan struct{})
	mux := NewHTTPMux(nil, nil, rec, func() { close(quit) })

	rw := httptest.NewRecorder()
	mux.ServeHTTP(rw, httptest.NewRequest("GET", "/flightz", nil))
	if rw.Code != 200 || !bytes.Contains(rw.Body.Bytes(), []byte(`"kind":"step"`)) {
		t.Fatalf("/flightz status %d body %s", rw.Code, rw.Body.String())
	}

	rw = httptest.NewRecorder()
	mux.ServeHTTP(rw, httptest.NewRequest("GET", "/quitquitquit", nil))
	if rw.Code != 405 {
		t.Fatalf("GET /quitquitquit status %d, want 405", rw.Code)
	}
	rw = httptest.NewRecorder()
	mux.ServeHTTP(rw, httptest.NewRequest("POST", "/quitquitquit", nil))
	if rw.Code != 200 {
		t.Fatalf("POST /quitquitquit status %d", rw.Code)
	}
	select {
	case <-quit:
	default:
		t.Fatal("quit callback not invoked")
	}

	// Statusz without a tracker 404s rather than panicking.
	rw = httptest.NewRecorder()
	mux.ServeHTTP(rw, httptest.NewRequest("GET", "/statusz", nil))
	if rw.Code != 404 {
		t.Fatalf("/statusz without tracker: status %d, want 404", rw.Code)
	}
}
