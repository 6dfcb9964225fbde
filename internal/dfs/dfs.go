// Package dfs implements the replicated big-data file system substrate that
// SPATE's storage layer writes to — a single-process stand-in for the HDFS
// v2.5.2 deployment of the paper's testbed (64 MB blocks, replication 3,
// 4 data nodes).
//
// The cluster keeps namenode metadata in memory and stores block replicas
// as checksummed files under per-datanode directories on the local disk, so
// scan and decompression costs in benchmarks are real I/O. It supports the
// failure modes the paper's availability argument rests on: datanode loss
// with re-replication from surviving replicas, and checksum-verified reads
// that fail over between replicas on corruption.
package dfs

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spate/internal/obs"
)

// Config parameterizes a cluster. The zero value takes the paper's testbed
// defaults.
type Config struct {
	// BlockSize is the maximum bytes per block (default 64 MB).
	BlockSize int64
	// Replication is the number of replicas per block (default 3, clamped
	// to the datanode count).
	Replication int
	// DataNodes is the number of datanodes (default 4).
	DataNodes int
	// WriteMBps throttles datanode writes to the given per-replica
	// throughput, modeling slow storage (the paper's testbed used 7.2K RPM
	// RAID-5 disks behind a virtualized IaaS). 0 disables the model and
	// writes run at local-disk speed.
	WriteMBps float64
	// ReadMBps likewise throttles block reads. 0 disables.
	ReadMBps float64
	// Obs selects the metrics registry the cluster reports into
	// (default obs.Default; obs.NewNoop() disables accounting).
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.BlockSize <= 0 {
		c.BlockSize = 64 << 20
	}
	if c.Replication <= 0 {
		c.Replication = 3
	}
	if c.DataNodes <= 0 {
		c.DataNodes = 4
	}
	if c.Replication > c.DataNodes {
		c.Replication = c.DataNodes
	}
	return c
}

// Sentinel errors surfaced by cluster operations.
var (
	ErrNotFound    = errors.New("dfs: file not found")
	ErrExists      = errors.New("dfs: file exists")
	ErrUnavailable = errors.New("dfs: no available replica")
)

type blockMeta struct {
	id       int64
	size     int64
	checksum uint32
	replicas []int // datanode indices holding the block
}

type fileMeta struct {
	path   string
	size   int64
	blocks []blockMeta
}

type dataNode struct {
	dir   string
	alive bool
	used  int64 // bytes stored on this node
}

// Cluster is an in-process replicated file system. All methods are safe
// for concurrent use.
type Cluster struct {
	cfg  Config
	root string

	mu      sync.RWMutex
	files   map[string]*fileMeta
	nodes   []*dataNode
	nextBlk int64
	nextPut int // round-robin placement cursor

	// scrubHook, when set, is consulted once per replica verification
	// during Scrub — fault injection for tests. Guarded by mu.
	scrubHook func(path string, block int64, node int) error

	bytesRead    atomic.Int64
	bytesWritten atomic.Int64

	met clusterMetrics
}

// clusterMetrics holds the cluster's pre-resolved obs series; per-op
// updates are lock-free atomic adds.
type clusterMetrics struct {
	opSec     map[string]*obs.Histogram // write|read|delete|rereplicate
	readB     *obs.Counter
	writtenB  *obs.Counter
	opErrors  *obs.Counter
	replicaFO *obs.Counter // replica failovers during reads
}

func newClusterMetrics(r *obs.Registry) clusterMetrics {
	m := clusterMetrics{opSec: make(map[string]*obs.Histogram)}
	for _, op := range []string{"write", "read", "delete", "rereplicate", "scrub"} {
		m.opSec[op] = r.Histogram("spate_dfs_op_seconds",
			"DFS operation latency by op.", nil, "op", op)
	}
	m.readB = r.Counter("spate_dfs_read_bytes_total", "Bytes served to DFS readers.")
	m.writtenB = r.Counter("spate_dfs_written_bytes_total", "Bytes written to datanodes including replication copies.")
	m.opErrors = r.Counter("spate_dfs_op_errors_total", "Failed DFS operations.")
	m.replicaFO = r.Counter("spate_dfs_replica_failovers_total", "Reads that skipped a dead or corrupt replica.")
	return m
}

// NewCluster creates a cluster rooted at dir (created if absent). A
// directory that carries a previous cluster's fsimage recovers its file
// table, so restarts see every stored file.
func NewCluster(dir string, cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	c := &Cluster{cfg: cfg, root: dir, files: make(map[string]*fileMeta)}
	for i := 0; i < cfg.DataNodes; i++ {
		nd := filepath.Join(dir, fmt.Sprintf("dn%02d", i))
		if err := os.MkdirAll(nd, 0o755); err != nil {
			return nil, fmt.Errorf("dfs: create datanode dir: %w", err)
		}
		c.nodes = append(c.nodes, &dataNode{dir: nd, alive: true})
	}
	if err := c.loadImage(); err != nil {
		return nil, err
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.Default
	}
	c.met = newClusterMetrics(reg)
	// Scrape-time gauges: the newest cluster registered under a name owns
	// its series (relevant only when several clusters share one registry).
	reg.GaugeFunc("spate_dfs_under_replicated_blocks",
		"Blocks with fewer live replicas than the target.",
		func() float64 { return float64(c.UnderReplicated()) })
	reg.GaugeFunc("spate_dfs_live_nodes", "Datanodes currently alive.",
		func() float64 { return float64(c.Usage().LiveNodes) })
	reg.GaugeFunc("spate_dfs_stored_bytes", "Bytes on datanode disks including replication.",
		func() float64 { return float64(c.Usage().StoredBytes) })
	reg.GaugeFunc("spate_dfs_files", "Files in the namenode table.",
		func() float64 { return float64(c.Usage().Files) })
	return c, nil
}

// Config returns the cluster configuration (after defaulting).
func (c *Cluster) Config() Config { return c.cfg }

func blockFile(dir string, id int64) string {
	return filepath.Join(dir, fmt.Sprintf("blk_%012d", id))
}

// throttle sleeps to cap an n-byte transfer at mbps MB/s (0 = unlimited).
func throttle(mbps float64, n int) {
	if mbps <= 0 || n == 0 {
		return
	}
	time.Sleep(time.Duration(float64(n) / (mbps * (1 << 20)) * float64(time.Second)))
}

// WriteFile stores data under path, splitting it into replicated blocks.
// It fails if the path already exists (DFS files are write-once, like HDFS).
func (c *Cluster) WriteFile(path string, data []byte) error {
	t0 := time.Now()
	defer c.met.opSec["write"].ObserveSince(t0)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.files[path]; ok {
		c.met.opErrors.Inc()
		return fmt.Errorf("%q: %w", path, ErrExists)
	}
	fm := &fileMeta{path: path, size: int64(len(data))}
	for off := int64(0); off < int64(len(data)) || (off == 0 && len(data) == 0); off += c.cfg.BlockSize {
		end := off + c.cfg.BlockSize
		if end > int64(len(data)) {
			end = int64(len(data))
		}
		chunk := data[off:end]
		bm, err := c.placeBlockLocked(chunk)
		if err != nil {
			c.rollbackLocked(fm)
			c.met.opErrors.Inc()
			return err
		}
		fm.blocks = append(fm.blocks, bm)
		if len(data) == 0 {
			break
		}
	}
	c.files[path] = fm
	return c.saveImageLocked()
}

// placeBlockLocked writes one block to Replication live datanodes.
func (c *Cluster) placeBlockLocked(chunk []byte) (blockMeta, error) {
	bm := blockMeta{id: c.nextBlk, size: int64(len(chunk)), checksum: crc32.ChecksumIEEE(chunk)}
	c.nextBlk++
	placed := 0
	for probe := 0; probe < len(c.nodes) && placed < c.cfg.Replication; probe++ {
		i := (c.nextPut + probe) % len(c.nodes)
		n := c.nodes[i]
		if !n.alive {
			continue
		}
		if err := os.WriteFile(blockFile(n.dir, bm.id), chunk, 0o644); err != nil {
			return bm, fmt.Errorf("dfs: write block: %w", err)
		}
		throttle(c.cfg.WriteMBps, len(chunk))
		n.used += bm.size
		bm.replicas = append(bm.replicas, i)
		placed++
	}
	c.nextPut = (c.nextPut + 1) % len(c.nodes)
	if placed == 0 {
		return bm, fmt.Errorf("dfs: place block: %w", ErrUnavailable)
	}
	c.bytesWritten.Add(int64(placed) * bm.size)
	c.met.writtenB.Add(int64(placed) * bm.size)
	return bm, nil
}

func (c *Cluster) rollbackLocked(fm *fileMeta) {
	for _, bm := range fm.blocks {
		c.removeBlockLocked(bm)
	}
}

func (c *Cluster) removeBlockLocked(bm blockMeta) {
	for _, i := range bm.replicas {
		n := c.nodes[i]
		if err := os.Remove(blockFile(n.dir, bm.id)); err == nil {
			n.used -= bm.size
		}
	}
}

// ReadFile returns the contents of path, verifying block checksums and
// failing over between replicas.
func (c *Cluster) ReadFile(path string) ([]byte, error) {
	t0 := time.Now()
	defer c.met.opSec["read"].ObserveSince(t0)
	c.mu.RLock()
	fm, ok := c.files[path]
	if !ok {
		c.mu.RUnlock()
		c.met.opErrors.Inc()
		return nil, fmt.Errorf("%q: %w", path, ErrNotFound)
	}
	blocks := make([]blockMeta, len(fm.blocks))
	copy(blocks, fm.blocks)
	size := fm.size
	c.mu.RUnlock()

	out := make([]byte, 0, size)
	for _, bm := range blocks {
		chunk, err := c.readBlock(bm)
		if err != nil {
			c.met.opErrors.Inc()
			return nil, fmt.Errorf("dfs: %q block %d: %w", path, bm.id, err)
		}
		out = append(out, chunk...)
	}
	c.bytesRead.Add(int64(len(out)))
	c.met.readB.Add(int64(len(out)))
	return out, nil
}

// ReadFileRange returns n bytes of path starting at offset off, touching
// only the blocks the range covers. Every touched block is read in full
// from a replica and checksum-verified (the block is the checksum unit, as
// in HDFS positional reads), but the throughput model and the cluster's
// read accounting are charged only for the bytes actually served — a
// footer probe over a multi-gigabyte leaf costs a few block verifications,
// not a whole-file transfer. Reads past end-of-file are truncated; a read
// starting at or past EOF returns an empty slice.
func (c *Cluster) ReadFileRange(path string, off, n int64) ([]byte, error) {
	t0 := time.Now()
	defer c.met.opSec["read"].ObserveSince(t0)
	if off < 0 || n < 0 {
		c.met.opErrors.Inc()
		return nil, fmt.Errorf("dfs: negative range %d+%d on %q", off, n, path)
	}
	c.mu.RLock()
	fm, ok := c.files[path]
	if !ok {
		c.mu.RUnlock()
		c.met.opErrors.Inc()
		return nil, fmt.Errorf("%q: %w", path, ErrNotFound)
	}
	blocks := make([]blockMeta, len(fm.blocks))
	copy(blocks, fm.blocks)
	size := fm.size
	c.mu.RUnlock()

	if off >= size {
		return nil, nil
	}
	if off+n > size {
		n = size - off
	}
	var out []byte
	pos := int64(0)
	for _, bm := range blocks {
		if pos >= off+n {
			break
		}
		if pos+bm.size > off {
			chunk, err := c.readBlockRange(bm, max64(off-pos, 0), min64(off+n-pos, bm.size))
			if err != nil {
				c.met.opErrors.Inc()
				return nil, fmt.Errorf("dfs: %q block %d: %w", path, bm.id, err)
			}
			if int64(len(chunk)) == n {
				// The range lies within this block: hand out the slice of the
				// block just read — it is this call's own — instead of a copy.
				out = chunk
				break
			}
			if out == nil {
				out = make([]byte, 0, n)
			}
			out = append(out, chunk...)
		}
		pos += bm.size
	}
	c.bytesRead.Add(int64(len(out)))
	c.met.readB.Add(int64(len(out)))
	return out, nil
}

// File is a read-only handle over a stored file, implementing io.ReaderAt
// for seekable consumers (the segment leaf reader). The handle captures
// the file's block table at Open time; DFS files are write-once, so the
// view never goes stale.
type File struct {
	c    *Cluster
	path string
	size int64
}

// Open returns a ReaderAt-backed handle for path.
func (c *Cluster) Open(path string) (*File, error) {
	c.mu.RLock()
	fm, ok := c.files[path]
	if !ok {
		c.mu.RUnlock()
		return nil, fmt.Errorf("%q: %w", path, ErrNotFound)
	}
	size := fm.size
	c.mu.RUnlock()
	return &File{c: c, path: path, size: size}, nil
}

// Size returns the file's length in bytes.
func (f *File) Size() int64 { return f.size }

// Path returns the file's DFS path.
func (f *File) Path() string { return f.path }

// ReadAt implements io.ReaderAt with checksummed partial reads. A read
// reaching past end-of-file returns the available bytes and io.EOF, per
// the io.ReaderAt contract.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	data, err := f.c.ReadFileRange(f.path, off, int64(len(p)))
	if err != nil {
		return 0, err
	}
	n := copy(p, data)
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// readBlockRange serves bytes [from, to) of one block: the whole block is
// fetched from a live replica and verified, then the requested slice is
// returned with the throughput model charged for the slice alone.
func (c *Cluster) readBlockRange(bm blockMeta, from, to int64) ([]byte, error) {
	c.mu.RLock()
	replicas := append([]int(nil), bm.replicas...)
	c.mu.RUnlock()
	var lastErr error = ErrUnavailable
	for _, i := range replicas {
		c.mu.RLock()
		n := c.nodes[i]
		alive := n.alive
		c.mu.RUnlock()
		if !alive {
			c.met.replicaFO.Inc()
			continue
		}
		chunk, err := os.ReadFile(blockFile(n.dir, bm.id))
		if err != nil {
			lastErr = err
			c.met.replicaFO.Inc()
			continue
		}
		if crc32.ChecksumIEEE(chunk) != bm.checksum {
			lastErr = fmt.Errorf("dfs: checksum mismatch on dn%02d", i)
			c.met.replicaFO.Inc()
			continue
		}
		throttle(c.cfg.ReadMBps, int(to-from))
		return chunk[from:to], nil
	}
	return nil, lastErr
}

// readBlock tries each replica until one passes the checksum.
func (c *Cluster) readBlock(bm blockMeta) ([]byte, error) {
	c.mu.RLock()
	replicas := append([]int(nil), bm.replicas...)
	c.mu.RUnlock()
	var lastErr error = ErrUnavailable
	for _, i := range replicas {
		c.mu.RLock()
		n := c.nodes[i]
		alive := n.alive
		c.mu.RUnlock()
		if !alive {
			c.met.replicaFO.Inc()
			continue
		}
		chunk, err := os.ReadFile(blockFile(n.dir, bm.id))
		if err != nil {
			lastErr = err
			c.met.replicaFO.Inc()
			continue
		}
		if crc32.ChecksumIEEE(chunk) != bm.checksum {
			lastErr = fmt.Errorf("dfs: checksum mismatch on dn%02d", i)
			c.met.replicaFO.Inc()
			continue
		}
		throttle(c.cfg.ReadMBps, len(chunk))
		return chunk, nil
	}
	return nil, lastErr
}

// Delete removes a file and its block replicas.
func (c *Cluster) Delete(path string) error {
	t0 := time.Now()
	defer c.met.opSec["delete"].ObserveSince(t0)
	c.mu.Lock()
	defer c.mu.Unlock()
	fm, ok := c.files[path]
	if !ok {
		c.met.opErrors.Inc()
		return fmt.Errorf("%q: %w", path, ErrNotFound)
	}
	c.rollbackLocked(fm)
	delete(c.files, path)
	return c.saveImageLocked()
}

// FileInfo describes one stored file.
type FileInfo struct {
	Path   string
	Size   int64
	Blocks int
}

// Stat returns metadata for path.
func (c *Cluster) Stat(path string) (FileInfo, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	fm, ok := c.files[path]
	if !ok {
		return FileInfo{}, fmt.Errorf("%q: %w", path, ErrNotFound)
	}
	return FileInfo{Path: fm.path, Size: fm.size, Blocks: len(fm.blocks)}, nil
}

// Exists reports whether path is stored.
func (c *Cluster) Exists(path string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.files[path]
	return ok
}

// List returns files whose path starts with prefix, sorted by path.
func (c *Cluster) List(prefix string) []FileInfo {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []FileInfo
	for p, fm := range c.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, FileInfo{Path: fm.path, Size: fm.size, Blocks: len(fm.blocks)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// Usage summarizes cluster storage.
type Usage struct {
	// LogicalBytes is the sum of file sizes (pre-replication).
	LogicalBytes int64
	// StoredBytes is the total bytes on datanode disks (post-replication) —
	// the "disk space for the whole distributed system" metric of Fig. 8/10.
	StoredBytes int64
	Files       int
	LiveNodes   int
	// UnderReplicatedBlocks counts blocks with fewer live replicas than
	// the target — the scrubber's effectiveness gauge.
	UnderReplicatedBlocks int
}

// Usage returns current storage statistics.
func (c *Cluster) Usage() Usage {
	c.mu.RLock()
	defer c.mu.RUnlock()
	u := Usage{Files: len(c.files)}
	for _, fm := range c.files {
		u.LogicalBytes += fm.size
		for _, bm := range fm.blocks {
			live := 0
			for _, r := range bm.replicas {
				if c.nodes[r].alive {
					live++
				}
			}
			if live < c.cfg.Replication {
				u.UnderReplicatedBlocks++
			}
		}
	}
	for _, n := range c.nodes {
		u.StoredBytes += n.used
		if n.alive {
			u.LiveNodes++
		}
	}
	return u
}

// BytesRead returns the cumulative bytes served to readers.
func (c *Cluster) BytesRead() int64 { return c.bytesRead.Load() }

// BytesWritten returns the cumulative bytes written to datanodes
// (including replication copies).
func (c *Cluster) BytesWritten() int64 { return c.bytesWritten.Load() }

// KillNode marks a datanode dead, simulating a machine failure. Its block
// files remain on disk but are never read while dead.
func (c *Cluster) KillNode(i int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.nodes) {
		return fmt.Errorf("dfs: no datanode %d", i)
	}
	c.nodes[i].alive = false
	return nil
}

// ReviveNode brings a datanode back. Blocks it held count again.
func (c *Cluster) ReviveNode(i int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.nodes) {
		return fmt.Errorf("dfs: no datanode %d", i)
	}
	c.nodes[i].alive = true
	return nil
}

// CorruptBlock flips bytes of one replica of the first block of path —
// failure injection for checksum tests. It returns the damaged node index.
func (c *Cluster) CorruptBlock(path string) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fm, ok := c.files[path]
	if !ok || len(fm.blocks) == 0 {
		return -1, fmt.Errorf("%q: %w", path, ErrNotFound)
	}
	bm := fm.blocks[0]
	if len(bm.replicas) == 0 {
		return -1, ErrUnavailable
	}
	i := bm.replicas[0]
	fn := blockFile(c.nodes[i].dir, bm.id)
	data, err := os.ReadFile(fn)
	if err != nil {
		return -1, err
	}
	if len(data) == 0 {
		data = []byte{0xFF}
	} else {
		data[0] ^= 0xFF
	}
	return i, os.WriteFile(fn, data, 0o644)
}

// Rereplicate restores the replication factor of under-replicated blocks
// (e.g. after KillNode) by copying from surviving replicas to other live
// nodes. It returns the number of new replicas created.
func (c *Cluster) Rereplicate() (int, error) {
	t0 := time.Now()
	defer c.met.opSec["rereplicate"].ObserveSince(t0)
	c.mu.Lock()
	defer c.mu.Unlock()
	created, _, err := c.rereplicateLocked()
	if err != nil {
		return created, err
	}
	if created > 0 {
		if err := c.saveImageLocked(); err != nil {
			return created, err
		}
	}
	return created, nil
}

// rereplicateLocked restores the replication factor of under-replicated
// blocks, returning the replicas created and their total bytes. Callers
// hold c.mu and persist the fsimage themselves.
func (c *Cluster) rereplicateLocked() (int, int64, error) {
	created := 0
	var bytes int64
	for _, fm := range c.files {
		for bi := range fm.blocks {
			bm := &fm.blocks[bi]
			live := 0
			onNode := make(map[int]bool)
			for _, r := range bm.replicas {
				onNode[r] = true
				if c.nodes[r].alive {
					live++
				}
			}
			if live >= c.cfg.Replication || live == 0 {
				continue
			}
			// Read from a live replica.
			var chunk []byte
			for _, r := range bm.replicas {
				if !c.nodes[r].alive {
					continue
				}
				data, err := os.ReadFile(blockFile(c.nodes[r].dir, bm.id))
				if err == nil && crc32.ChecksumIEEE(data) == bm.checksum {
					chunk = data
					break
				}
			}
			if chunk == nil && bm.size > 0 {
				return created, bytes, fmt.Errorf("dfs: block %d unrecoverable: %w", bm.id, ErrUnavailable)
			}
			if chunk == nil {
				chunk = []byte{}
			}
			for i, n := range c.nodes {
				if live >= c.cfg.Replication {
					break
				}
				if !n.alive || onNode[i] {
					continue
				}
				if err := os.WriteFile(blockFile(n.dir, bm.id), chunk, 0o644); err != nil {
					return created, bytes, fmt.Errorf("dfs: rereplicate: %w", err)
				}
				n.used += bm.size
				bm.replicas = append(bm.replicas, i)
				onNode[i] = true
				live++
				created++
				bytes += bm.size
				c.bytesWritten.Add(bm.size)
				c.met.writtenB.Add(bm.size)
			}
		}
	}
	return created, bytes, nil
}

// UnderReplicated counts blocks with fewer live replicas than the target.
func (c *Cluster) UnderReplicated() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := 0
	for _, fm := range c.files {
		for _, bm := range fm.blocks {
			live := 0
			for _, r := range bm.replicas {
				if c.nodes[r].alive {
					live++
				}
			}
			if live < c.cfg.Replication {
				n++
			}
		}
	}
	return n
}
