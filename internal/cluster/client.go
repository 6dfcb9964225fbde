package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"spate/internal/obs"
	"spate/internal/serving"
)

// statusError carries a peer's HTTP status alongside its error envelope,
// so the coordinator can translate typed conditions (backpressure 429,
// stale/finalized 409) back into their sentinel errors. retryAfter keeps
// the peer's Retry-After hint, so a shard's honest backoff propagates
// through the coordinator to the originating client.
type statusError struct {
	code       int
	msg        string
	retryAfter time.Duration
}

func (e *statusError) Error() string { return e.msg }

// httpStatus extracts the peer status from a client error, 0 when the
// error was not an HTTP status failure.
func httpStatus(err error) int {
	var se *statusError
	if errors.As(err, &se) {
		return se.code
	}
	return 0
}

// retryAfterOf extracts the peer's Retry-After hint from a client error,
// 0 when it carried none.
func retryAfterOf(err error) time.Duration {
	var se *statusError
	if errors.As(err, &se) {
		return se.retryAfter
	}
	return 0
}

// client is the coordinator's HTTP side: one shared transport, JSON in,
// JSON or an explore frame out, errors surfaced from the peer's error
// envelope; and the part memo every explore frame it reads decodes its
// parts through, its series registered on reg.
type client struct {
	hc    *http.Client
	parts *partMemo
}

func newClient(reg *obs.Registry) *client {
	return &client{hc: &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 8,
			IdleConnTimeout:     90 * time.Second,
		},
	}, parts: newPartMemo(reg)}
}

// post sends req as JSON to base+path and decodes the JSON response into
// resp. Deadlines and cancellation ride on ctx.
func (c *client) post(ctx context.Context, base, path string, req, resp any) error {
	hreq, err := newPost(ctx, base, path, req)
	if err != nil {
		return err
	}
	return c.do(hreq, path, base, jsonInto(resp))
}

// explore posts req to base's /rpc/explore and reads the explore frame it
// answers with, decoding the summary parts it does not hold yet — those
// whose bytes the frame leaves out are the parts req.held names — and
// checking the partials on the caller's goroutine. A 200 that is not an
// explore frame comes from a node of another version.
func (c *client) explore(ctx context.Context, base string, req exploreRequest) (*exploreResponse, error) {
	const path = "/rpc/explore"
	hreq, err := newPost(ctx, base, path, req)
	if err != nil {
		return nil, err
	}
	var resp *exploreResponse
	err = c.do(hreq, path, base, func(hresp *http.Response) error {
		if ct := hresp.Header.Get("Content-Type"); ct != exploreFrameType {
			return fmt.Errorf("answer is %q, not %q: node and coordinator run different versions", ct, exploreFrameType)
		}
		body, err := readFrameBody(hresp)
		if err != nil {
			return err
		}
		if resp, err = readExploreFrame(body, c.parts, req.held); err != nil {
			return err
		}
		if req.AggTable != "" {
			return checkPartials(resp, req.Spec)
		}
		return nil
	})
	return resp, err
}

// newPost builds a POST of req as JSON to base+path.
func newPost(ctx context.Context, base, path string, req any) (*http.Request, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: marshal %s: %w", path, err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("cluster: request %s: %w", path, err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	// Propagate the caller's trace identity so shard-side spans stitch
	// into the coordinator-rooted trace, and the tenant identity so
	// per-shard load stays attributable to the tenant that caused it.
	obs.InjectTrace(ctx, hreq.Header)
	serving.InjectTenant(ctx, hreq.Header)
	return hreq, nil
}

// get fetches base+path and decodes the JSON response into resp.
func (c *client) get(ctx context.Context, base, path string, resp any) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	if err != nil {
		return fmt.Errorf("cluster: request %s: %w", path, err)
	}
	return c.do(hreq, path, base, jsonInto(resp))
}

// jsonInto reads a JSON answer into resp; nil discards the answer.
func jsonInto(resp any) func(*http.Response) error {
	if resp == nil {
		return nil
	}
	return func(hresp *http.Response) error { return json.NewDecoder(hresp.Body).Decode(resp) }
}

// do sends hreq, turns an answer other than 200 into a statusError, and
// hands a 200 to read (nil: the answer is discarded).
func (c *client) do(hreq *http.Request, path, base string, read func(*http.Response) error) error {
	hresp, err := c.hc.Do(hreq)
	if err != nil {
		return fmt.Errorf("cluster: %s %s: %w", path, base, err)
	}
	defer func() {
		io.Copy(io.Discard, hresp.Body)
		hresp.Body.Close()
	}()
	if hresp.StatusCode != http.StatusOK {
		var retryAfter time.Duration
		if secs, err := strconv.Atoi(hresp.Header.Get("Retry-After")); err == nil && secs > 0 {
			retryAfter = time.Duration(secs) * time.Second
		}
		var e errorResponse
		if json.NewDecoder(hresp.Body).Decode(&e) == nil && e.Error != "" {
			return &statusError{code: hresp.StatusCode, msg: fmt.Sprintf("cluster: %s %s: %s", path, base, e.Error), retryAfter: retryAfter}
		}
		return &statusError{code: hresp.StatusCode, msg: fmt.Sprintf("cluster: %s %s: HTTP %d", path, base, hresp.StatusCode), retryAfter: retryAfter}
	}
	if read == nil {
		return nil
	}
	if err := read(hresp); err != nil {
		return fmt.Errorf("cluster: decode %s %s: %w", path, base, err)
	}
	return nil
}
