// Lifecycle maintenance across the cluster: every shard node may carry its
// own lifecycle.Manager (its engine, its DFS, its schedule), and the
// coordinator fans status probes and manual runs out to all of them. Fan-
// outs follow the PR-2 degradation contract — per-node results plus a
// Partial flag instead of all-or-nothing, so one dead shard doesn't hide
// the maintenance state of the rest of the fleet.

package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/url"

	"spate/internal/lifecycle"
)

// SetLifecycle attaches a maintenance manager to the node, enabling its
// /rpc/lifecycle surface. The node does not own the manager's schedule —
// callers Start and Close it.
func (n *Node) SetLifecycle(m *lifecycle.Manager) { n.lc.Store(m) }

// Lifecycle returns the attached manager, or nil.
func (n *Node) Lifecycle() *lifecycle.Manager {
	if v := n.lc.Load(); v != nil {
		return v.(*lifecycle.Manager)
	}
	return nil
}

// handleLifecycle is the node-side maintenance RPC: GET returns the
// manager's status; POST runs ?action=trigger&job=<name> (the default
// action), pause, or resume.
func (n *Node) handleLifecycle(w http.ResponseWriter, r *http.Request) {
	m := n.Lifecycle()
	if m == nil {
		rpcError(w, http.StatusServiceUnavailable, fmt.Errorf("cluster: no lifecycle manager on this node"))
		return
	}
	action := "status"
	switch r.Method {
	case http.MethodGet:
	case http.MethodPost:
		switch action = r.URL.Query().Get("action"); action {
		case "":
			action = "trigger"
		case "trigger", "pause", "resume":
		default:
			rpcError(w, http.StatusBadRequest, fmt.Errorf("cluster: unknown action %q", action))
			return
		}
	default:
		rpcError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET or POST required"))
		return
	}
	body, err := m.Act(action, r.URL.Query().Get("job"))
	if err != nil {
		rpcError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, body)
}

// NodeLifecycle is one node's slice of a cluster-wide lifecycle fan-out.
type NodeLifecycle struct {
	URL    string            `json:"url"`
	Status *lifecycle.Status `json:"status,omitempty"`
	// Record is the run produced by a trigger fan-out (absent on status
	// probes and failed nodes).
	Record *lifecycle.RunRecord `json:"record,omitempty"`
	Error  string               `json:"error,omitempty"`
}

// LifecycleSweep aggregates a fan-out across the fleet. Partial follows
// the exploration degradation contract: some nodes answered, some did not,
// and the per-node slices say which.
type LifecycleSweep struct {
	Nodes   []NodeLifecycle `json:"nodes"`
	Failed  int             `json:"failed"`
	Partial bool            `json:"partial"`
}

// Lifecycle reports or drives maintenance fleet-wide, in the vocabulary of
// the node RPC it fans out: action "status" probes every node's manager,
// "pause" and "resume" switch scheduling, and "trigger" runs the named job
// synchronously on every node. It tolerates partial completion — nodes
// that fail (unreachable, no manager, job error) are reported alongside
// the ones that answered — and fails only when every node does.
func (c *Coordinator) Lifecycle(ctx context.Context, action, job string) (LifecycleSweep, error) {
	path := "/rpc/lifecycle?action=" + url.QueryEscape(action) + "&job=" + url.QueryEscape(job)
	call := func(base string, nl *NodeLifecycle) error {
		if action == "trigger" {
			var rec lifecycle.RunRecord
			if err := c.cl.post(ctx, base, path, struct{}{}, &rec); err != nil {
				return err
			}
			nl.Record = &rec
			return nil
		}
		var st lifecycle.Status
		var err error
		if action == "status" {
			err = c.cl.get(ctx, base, "/rpc/lifecycle", &st)
		} else {
			err = c.cl.post(ctx, base, path, struct{}{}, &st)
		}
		if err != nil {
			return err
		}
		nl.Status = &st
		return nil
	}

	urls := c.allNodes()
	sweep := LifecycleSweep{Nodes: make([]NodeLifecycle, len(urls))}
	for i, err := range fanOut(len(urls), func(i int) error {
		sweep.Nodes[i].URL = urls[i]
		return call(urls[i], &sweep.Nodes[i])
	}) {
		if err != nil {
			sweep.Nodes[i].Error = err.Error()
		}
	}
	var firstErr string
	for _, nl := range sweep.Nodes {
		if nl.Error != "" {
			sweep.Failed++
			if firstErr == "" {
				firstErr = nl.Error
			}
		}
	}
	sweep.Partial = sweep.Failed > 0 && sweep.Failed < len(sweep.Nodes)
	if len(sweep.Nodes) > 0 && sweep.Failed == len(sweep.Nodes) {
		return sweep, fmt.Errorf("cluster: lifecycle fan-out failed on all %d nodes: %s", sweep.Failed, firstErr)
	}
	return sweep, nil
}
