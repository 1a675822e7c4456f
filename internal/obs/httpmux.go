package obs

// The live-introspection HTTP surface: one explicit mux carrying the
// progress snapshot (as /statusz JSON, its SSE stream and Prometheus
// text), the tracers' retained events and the pprof handlers. Explicit so
// that the binary does not leak handlers onto http.DefaultServeMux.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// NewHTTPMux assembles the introspection mux:
//
//	/metrics         the progress snapshot as Prometheus text (tracker)
//	/statusz         the progress snapshot as JSON (tracker)
//	/statusz/stream  the same snapshot as a Server-Sent-Events stream
//	                 (?interval_ms=N, default 500, floor 50)
//	/flightz         the tracers' retained events as trace JSON lines
//	/debug/pprof/*   the standard pprof handlers
//	/quitquitquit    POST: invoke quit (for -http-linger shutdown)
//
// A nil tracker, empty flight or nil quit leaves its endpoints answering
// 404.
func NewHTTPMux(tracker *ProgressTracker, flight []*Tracer, quit func()) *http.ServeMux {
	mux := http.NewServeMux()
	if tracker != nil {
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			_ = tracker.WritePrometheus(w)
		})
		mux.HandleFunc("/statusz", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = tracker.WriteStatusz(w)
		})
		mux.HandleFunc("/statusz/stream", func(w http.ResponseWriter, r *http.Request) {
			streamStatusz(w, r, tracker)
		})
	}
	if len(flight) > 0 {
		mux.HandleFunc("/flightz", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/jsonl")
			_ = Dump(w, flight...)
		})
	}
	if quit != nil {
		mux.HandleFunc("/quitquitquit", func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				http.Error(w, "POST required", http.StatusMethodNotAllowed)
				return
			}
			fmt.Fprintln(w, "bye")
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
			quit()
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// streamStatusz serves the progress snapshot as an SSE stream: one
// `data: {...}` event immediately, then one per interval until the client
// disconnects. Between events a `: heartbeat` comment keeps intermediaries
// from timing the connection out (?heartbeat_ms=N overrides the 10s
// default, floor 50 — mostly for tests). The handler returns as soon as
// the request context is canceled, so a dropped client never leaks the
// goroutine.
func streamStatusz(w http.ResponseWriter, r *http.Request, tracker *ProgressTracker) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	queryInterval := func(name string, def time.Duration) (time.Duration, bool) {
		v := r.URL.Query().Get(name)
		if v == "" {
			return def, true
		}
		ms, err := strconv.Atoi(v)
		if err != nil || ms < 0 {
			return 0, false
		}
		if ms < 50 {
			ms = 50
		}
		return time.Duration(ms) * time.Millisecond, true
	}
	interval, ok := queryInterval("interval_ms", 500*time.Millisecond)
	if !ok {
		http.Error(w, "bad interval_ms", http.StatusBadRequest)
		return
	}
	heartbeat, ok := queryInterval("heartbeat_ms", 10*time.Second)
	if !ok {
		http.Error(w, "bad heartbeat_ms", http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	// no-store (not just no-cache): an SSE stream must never be served
	// from or written into a cache. X-Accel-Buffering disables response
	// buffering in nginx-style reverse proxies, which would otherwise sit
	// on events past any flush.
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no")
	w.Header().Set("Connection", "keep-alive")
	send := func() bool {
		s := Statusz{NowUnixNs: time.Now().UnixNano(), Jobs: tracker.Snapshot()}
		if s.Jobs == nil {
			s.Jobs = []Progress{}
		}
		data, err := json.Marshal(s)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	if !send() {
		return
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	hb := time.NewTicker(heartbeat)
	defer hb.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-t.C:
			if !send() {
				return
			}
		case <-hb.C:
			// SSE comment line: ignored by clients, keeps the pipe warm.
			if _, err := fmt.Fprint(w, ": heartbeat\n\n"); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}
