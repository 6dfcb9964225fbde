package cluster

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"

	"spate/internal/core"
	"spate/internal/dfs"
	"spate/internal/lifecycle"
	"spate/internal/telco"
)

// LocalOptions tunes an in-process cluster.
type LocalOptions struct {
	// Dir is the root directory for per-node DFS state; empty creates a
	// temp dir that Close removes.
	Dir string
	// Engine configures every node's engine.
	Engine core.Options
	// DFS configures every node's backing file system; the zero value
	// selects a light single-datanode layout (each cluster node already is
	// the replication unit).
	DFS dfs.Config
	// Lifecycle, when set, attaches a started maintenance manager with
	// this configuration to every node; Close stops them.
	Lifecycle *lifecycle.Config
	// Streaming, when set, opens a streamer on every node (WAL under the
	// node's directory) so /rpc/append is served; Close closes them.
	Streaming *core.StreamerOptions
}

// Local is an in-process cluster: every node is a real core.Engine served
// over real TCP loopback HTTP, so the full RPC path — encoding, deadlines,
// retries, hedging — is exercised inside one test binary.
type Local struct {
	// Coordinator fronts the cluster.
	Coordinator *Coordinator
	// Nodes holds every node, replica-major within slot:
	// Nodes[slot*Replicas+replica].
	Nodes []*Node
	// URLs lists each node's base URL, aligned with Nodes.
	URLs []string

	replicas  int
	servers   []*http.Server
	managers  []*lifecycle.Manager
	streamers []*core.Streamer
	dir       string
	ownDir    bool
}

// StartLocal boots a full cluster in-process: NumSlots×Replicas engines on
// loopback listeners plus a coordinator wired to them.
func StartLocal(cfg Config, cellTable *telco.Table, opt LocalOptions) (*Local, error) {
	cfg = cfg.withDefaults()
	cells, err := core.NewCellInventory(cellTable)
	if err != nil {
		return nil, err
	}
	l := &Local{replicas: cfg.Replicas, dir: opt.Dir}
	if l.dir == "" {
		dir, err := os.MkdirTemp("", "spate-cluster-*")
		if err != nil {
			return nil, err
		}
		l.dir, l.ownDir = dir, true
	}
	if opt.DFS == (dfs.Config{}) {
		opt.DFS = dfs.Config{DataNodes: 1, Replication: 1}
	}

	m := NewShardMap(cfg, cells.Points())
	nodes := make([][]string, m.NumSlots())
	for slot := 0; slot < m.NumSlots(); slot++ {
		for rep := 0; rep < cfg.Replicas; rep++ {
			dir := filepath.Join(l.dir, fmt.Sprintf("slot%02d-r%d", slot, rep))
			fs, err := dfs.NewCluster(dir, opt.DFS)
			if err != nil {
				l.Close()
				return nil, err
			}
			eng, err := core.Open(fs, cellTable, opt.Engine)
			if err != nil {
				l.Close()
				return nil, err
			}
			node := NewNode(eng)
			if opt.Streaming != nil {
				sopts := *opt.Streaming
				sopts.WALDir = filepath.Join(dir, "wal")
				st, err := eng.OpenStreamer(sopts)
				if err != nil {
					l.Close()
					return nil, err
				}
				node.SetStreamer(st)
				l.streamers = append(l.streamers, st)
			}
			if opt.Lifecycle != nil {
				m := lifecycle.New(eng, *opt.Lifecycle)
				node.SetLifecycle(m)
				m.Start()
				l.managers = append(l.managers, m)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				l.Close()
				return nil, err
			}
			srv := &http.Server{Handler: node.Handler()}
			go srv.Serve(ln)
			l.Nodes = append(l.Nodes, node)
			l.URLs = append(l.URLs, "http://"+ln.Addr().String())
			l.servers = append(l.servers, srv)
			nodes[slot] = append(nodes[slot], l.URLs[len(l.URLs)-1])
		}
	}
	coord, err := newCoordinator(cfg, m, nodes, cells)
	if err != nil {
		l.Close()
		return nil, err
	}
	l.Coordinator = coord
	return l, nil
}

// Node returns the replica'th node of a slot.
func (l *Local) Node(slot, replica int) *Node {
	return l.Nodes[slot*l.replicas+replica]
}

// Close stops lifecycle managers, shuts every node server down and
// removes the temp dir when Local created it.
func (l *Local) Close() error {
	for _, m := range l.managers {
		m.Close()
	}
	for _, st := range l.streamers {
		st.Close()
	}
	for _, s := range l.servers {
		s.Close()
	}
	if l.ownDir {
		return os.RemoveAll(l.dir)
	}
	return nil
}
