package harness

import (
	"bytes"
	"io"
	"net/http"
	"sync"
	"time"
)

// Job is one request ready to send.
type Job struct {
	Op   Op
	Path string
	Body []byte // POST body of an append; nil for reads

	// Appends: what the batch carries and which feed epoch it belongs to.
	Rows  int
	Bytes int64
	Table string
	Lines []string // the wire lines, for callers that bypass HTTP
	Epoch int

	// Stream reads: only rows before CompleteTo were certainly
	// acknowledged when the request was sent; zero means the whole window.
	CompleteTo time.Time
}

// Outcome is what came back.
type Outcome struct {
	Job    *Job
	At     float64 // completion time, seconds into the phase
	Ms     float64
	Status int
	Size   int // body bytes
	Err    error
	Digest Digest
}

// Failed reports an errored, shed or timed-out request.
func (o *Outcome) Failed() bool { return o.Err != nil || o.Status != http.StatusOK }

// Client is one closed-loop caller on one keep-alive connection.
type Client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

// NewClient makes a client of the server at base (http://host:port).
func NewClient(base string) *Client {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &Client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

// Close drops the client's connection.
func (c *Client) Close() { c.hc.CloseIdleConnections() }

// Do sends one job and reads the reply to its end; the latency covers both.
func (c *Client) Do(j *Job, phaseStart time.Time) Outcome {
	out := Outcome{Job: j}
	var req *http.Request
	var err error
	if j.Body != nil {
		req, err = http.NewRequest(http.MethodPost, c.base+j.Path, bytes.NewReader(j.Body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	} else {
		req, err = http.NewRequest(http.MethodGet, c.base+j.Path, nil)
	}
	if err != nil {
		out.Err = err
		return out
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err == nil {
		c.buf.Reset()
		_, err = io.Copy(&c.buf, resp.Body)
		resp.Body.Close()
		out.Status = resp.StatusCode
	}
	done := time.Now()
	out.Ms = float64(done.Sub(t0)) / float64(time.Millisecond)
	out.At = done.Sub(phaseStart).Seconds()
	out.Size = c.buf.Len()
	out.Err = err
	if err == nil && out.Status == http.StatusOK && j.Body == nil {
		out.Digest, out.Err = DigestBody(j.Op.Class, c.buf.Bytes())
	}
	return out
}

// Phase is the record of one stretch of load.
type Phase struct {
	Outcomes [][]Outcome // per client
	Elapsed  []float64   // per client: start until its last reply, seconds
	Wall     float64
}

// RunPhase drives one closed-loop client per source for dur: each client
// sends its next job when the previous reply has been read in full, and
// stops asking for jobs once dur has passed. A nil job ends a client early.
func RunPhase(clients []*Client, sources []func() *Job, dur time.Duration) *Phase {
	p := &Phase{Outcomes: make([][]Outcome, len(sources)), Elapsed: make([]float64, len(sources))}
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for i := range sources {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				j := sources[i]()
				if j == nil {
					break
				}
				p.Outcomes[i] = append(p.Outcomes[i], clients[i].Do(j, start))
			}
			p.Elapsed[i] = time.Since(start).Seconds()
		}(i)
	}
	wg.Wait()
	p.Wall = time.Since(start).Seconds()
	return p
}
