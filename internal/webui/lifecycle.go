// /api/lifecycle — the maintenance daemon's HTTP surface. GET reports the
// scheduler state and recent run history; POST triggers a job by hand
// (?job=decay|scrub|compact) or pauses/resumes the schedule
// (?action=pause|resume). Over a coordinator the same calls fan out to
// every node's manager, so one call maintains every shard and partial
// completion is visible per node.

package webui

import (
	"fmt"
	"net/http"

	"spate/internal/lifecycle"
)

// SetLifecycle attaches the maintenance manager whose state /api/lifecycle
// serves. Callers own Start/Close. It has no effect over a coordinator,
// whose nodes own their managers.
func (s *Server) SetLifecycle(m *lifecycle.Manager) {
	if b, ok := s.b.(*engineBackend); ok {
		b.lc = m
	}
}

func (s *Server) handleLifecycle(w http.ResponseWriter, r *http.Request) {
	action := "status"
	if r.Method == http.MethodPost {
		switch action = r.URL.Query().Get("action"); action {
		case "":
			action = "trigger"
		case "trigger", "pause", "resume":
		default:
			httpErr(w, http.StatusBadRequest, fmt.Errorf("webui: unknown action %q", action))
			return
		}
	}
	body, err := s.b.lifecycle(r.Context(), action, r.URL.Query().Get("job"))
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, body)
}
