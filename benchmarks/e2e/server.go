package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"spate/benchmarks/harness"
)

// server is one spate-server subprocess under test.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	tmp    string // the server's TMPDIR: its store lives (only) here
	log    *os.File
	exited chan struct{} // closed once the process has been waited for
	setupS float64       // process start -> first successful request
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startServer boots spate-server over the trace and waits for its first
// successful answer. The server binds its port before it ingests and starts
// serving after, so a request sent at once is answered the moment the
// store is ready: set-up time needs no polling interval.
func startServer(bin, traceDir, tmp, logPath string, args []string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-trace", traceDir}, args...)...)
	cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
	cmd.Stdout, cmd.Stderr = logf, logf
	s := &server{cmd: cmd, base: "http://" + addr, tmp: tmp, log: logf, exited: make(chan struct{})}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	go func() { cmd.Wait(); close(s.exited) }()
	hc := &http.Client{Timeout: 170 * time.Second}
	for {
		resp, err := hc.Get(s.base + "/api/stats")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setupS = time.Since(t0).Seconds()
				return s, nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		select {
		case <-s.exited:
			s.stop()
			tail, _ := os.ReadFile(logPath)
			return nil, fmt.Errorf("spate-server exited during set-up: %s", lastLines(tail, 5))
		default:
		}
		if time.Since(t0) > 170*time.Second {
			s.stop()
			return nil, fmt.Errorf("spate-server not ready after 170 s: %v", err)
		}
		time.Sleep(2 * time.Millisecond) // connection refused: not bound yet
	}
}

func lastLines(b []byte, n int) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, " | ")
}

// stop ends the server and waits for it: SIGTERM first, so that it removes
// its temporary store, then SIGKILL.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
	s.log.Close()
	os.RemoveAll(s.tmp)
}

// cpuSeconds is the server's user+system CPU time so far.
func (s *server) cpuSeconds() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the whole line, in clock ticks (100 per second on
	// Linux).
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100
}

// peakRSSMB is the server's VmHWM.
func (s *server) peakRSSMB() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// storedPerRawByte is the store's size as a share of the text it holds:
// /api/space's stored_bytes (on the datanodes' disks, replicas included)
// over raw_bytes. The cluster UI has no /api/space; there the files under
// the server's temporary directory — every node's store — are measured
// against rawBytes, the size of the trace the driver wrote.
func (s *server) storedPerRawByte(hc *http.Client, rawBytes int64) (float64, error) {
	resp, err := hc.Get(s.base + "/api/space")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return float64(s.storeBytes()) / float64(rawBytes), nil
	}
	var sp struct {
		Raw    int64 `json:"raw_bytes"`
		Stored int64 `json:"stored_bytes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sp); err != nil {
		return 0, err
	}
	if sp.Raw == 0 {
		return 0, fmt.Errorf("/api/space reports no raw bytes")
	}
	return float64(sp.Stored) / float64(sp.Raw), nil
}

// storeBytes is the size of every file under the server's temporary
// directory.
func (s *server) storeBytes() int64 {
	var n int64
	filepath.WalkDir(s.tmp, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// scrape reads /api/stats.
func (s *server) scrape(hc *http.Client) (harness.Scrape, error) {
	resp, err := hc.Get(s.base + "/api/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return harness.ParseScrape(body)
}
