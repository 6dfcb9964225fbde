package obs

import (
	"encoding/json"
	"net/http"
)

// MetricsHandler serves the registry in Prometheus text exposition format
// (the GET /metrics endpoint).
func MetricsHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// TracesHandler serves the tracer's retained request traces
// (GET /api/trace). With ?id=<32-hex trace id> it returns that single
// trace's merged tree, or 404 if the ring no longer retains it.
func TracesHandler(t *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if id := r.URL.Query().Get("id"); id != "" {
			tr, ok := t.Find(id)
			if !ok {
				w.WriteHeader(http.StatusNotFound)
				_ = json.NewEncoder(w).Encode(map[string]string{
					"error": "trace " + id + " not retained",
				})
				return
			}
			_ = json.NewEncoder(w).Encode(tr)
			return
		}
		_ = json.NewEncoder(w).Encode(t.Traces())
	})
}

// SlowLogHandler serves the slow-query ring, most recent first
// (GET /api/slowlog).
func SlowLogHandler(l *SlowQueryLog) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(l.Recent())
	})
}
