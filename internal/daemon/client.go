package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"daesim/internal/engine"
	"daesim/internal/sweep"
)

// Client is the transport to one sweepd replica: JSON round trips,
// status classification (StatusError), MaxBatchItems chunking of the
// batch endpoints, and the per-replica admin calls CacheStats and GC.
// It does not route, retry or pin targets — FleetClient, which owns one
// Client per replica, does all three. A Client is safe for concurrent
// use.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8077".
	BaseURL string
	// HTTP is the underlying client. The default applies a generous
	// overall timeout (15 minutes — cold sweeps of large point sets are
	// legitimately slow) so a wedged daemon eventually fails the run
	// loudly rather than hanging it forever; replace it to tune.
	HTTP *http.Client
}

// defaultHTTPClient bounds requests to a daemon that accepted the
// connection but never answers (wedged, SIGSTOPped, or drowning in a
// concurrency-limit queue).
var defaultHTTPClient = &http.Client{Timeout: 15 * time.Minute}

// httpClient resolves the transport to use.
func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return defaultHTTPClient
}

// post sends req to path and decodes the 200 body into resp; non-2xx
// replies become errors carrying the daemon's message. ctx cancels the
// request in flight (nil is tolerated for robustness and means
// background).
func (c *Client) post(ctx context.Context, path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("daemon client: encoding %s request: %w", path, err)
	}
	if ctx == nil {
		ctx = context.Background() //daelint:ctxflow-ok nil ctx is documented to mean background
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("daemon client: %s: %w", path, err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	r, err := c.httpClient().Do(hreq)
	if err != nil {
		return fmt.Errorf("daemon client: %s: %w", path, err)
	}
	defer r.Body.Close()
	return c.decodeReply(path, r, resp)
}

// get fetches path and decodes the 200 body into resp.
func (c *Client) get(ctx context.Context, path string, resp any) error {
	if ctx == nil {
		ctx = context.Background() //daelint:ctxflow-ok nil ctx is documented to mean background
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return fmt.Errorf("daemon client: %s: %w", path, err)
	}
	r, err := c.httpClient().Do(hreq)
	if err != nil {
		return fmt.Errorf("daemon client: %s: %w", path, err)
	}
	defer r.Body.Close()
	return c.decodeReply(path, r, resp)
}

// StatusError is a non-2xx daemon reply. It keeps the HTTP status
// machine-readable so a fleet client can tell refusals that would repeat
// on every replica (4xx bad requests, 409 skew) from per-replica
// failures worth retrying elsewhere (5xx, and transport errors, which
// are not StatusErrors at all).
type StatusError struct {
	Code int
	Msg  string
	// Draining marks a 503 from a replica that is shutting down
	// cleanly (the DrainingHeader was set): the fleet client reroutes
	// the work without charging the replica a failure — draining is
	// orderly, not broken.
	Draining bool
}

func (e *StatusError) Error() string { return fmt.Sprintf("%s (HTTP %d)", e.Msg, e.Code) }

// Retryable reports whether the same request could succeed on a
// different replica: server-side failures may be local to the replica
// (dying, overloaded), while 4xx/409 refusals are about the request or
// the build and would repeat everywhere.
func (e *StatusError) Retryable() bool { return e.Code >= 500 }

// decodeReply maps a response to resp or to the daemon's error.
func (c *Client) decodeReply(path string, r *http.Response, resp any) error {
	data, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
	if err != nil {
		return fmt.Errorf("daemon client: reading %s reply: %w", path, err)
	}
	if r.StatusCode != http.StatusOK {
		draining := r.Header.Get(DrainingHeader) == DrainingValue
		var e ErrorResponse
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return fmt.Errorf("daemon client: %s: %w", path, &StatusError{Code: r.StatusCode, Msg: e.Error, Draining: draining})
		}
		return fmt.Errorf("daemon client: %s: %w", path, &StatusError{Code: r.StatusCode, Msg: string(bytes.TrimSpace(data)), Draining: draining})
	}
	if err := json.Unmarshal(data, resp); err != nil {
		return fmt.Errorf("daemon client: decoding %s reply: %w", path, err)
	}
	return nil
}

// BatchRun executes run requests — each carrying its own target — in
// MaxBatchItems-sized round trips (one for any realistically sized
// batch; the server 400s oversized requests with a non-retryable
// refusal, so the split must happen here, where sweeps of any size
// funnel through). Results[i] answers items[i].
func (c *Client) BatchRun(ctx context.Context, items []RunRequest) ([]*engine.Result, error) {
	out := make([]*engine.Result, 0, len(items))
	for start := 0; start < len(items); start += MaxBatchItems {
		end := start + MaxBatchItems
		if end > len(items) {
			end = len(items)
		}
		chunk := items[start:end]
		var resp BatchRunResponse
		if err := c.post(ctx, "/v1/batch/run", BatchRunRequest{Items: chunk}, &resp); err != nil {
			return nil, err
		}
		if len(resp.Results) != len(chunk) {
			return nil, fmt.Errorf("daemon client: /v1/batch/run returned %d results for %d items: %w", len(resp.Results), len(chunk), ErrMalformedReply)
		}
		for i, r := range resp.Results {
			if r == nil {
				// A null element would otherwise settle into the caller's L1
				// and store as a poisoned entry and crash the first reader.
				return nil, fmt.Errorf("daemon client: /v1/batch/run returned a null result for item %d: %w", start+i, ErrMalformedReply)
			}
		}
		out = append(out, resp.Results...)
	}
	return out, nil
}

// BatchSearch executes searches server-side in MaxBatchItems-sized
// round trips; Results[i] answers items[i]. Each item's Target must be
// set by the caller (FleetClient.BatchSearch pins them).
func (c *Client) BatchSearch(ctx context.Context, items []SearchRequest) ([]SearchResponse, error) {
	out := make([]SearchResponse, 0, len(items))
	for start := 0; start < len(items); start += MaxBatchItems {
		end := start + MaxBatchItems
		if end > len(items) {
			end = len(items)
		}
		chunk := items[start:end]
		var resp BatchSearchResponse
		if err := c.post(ctx, "/v1/batch/search", BatchSearchRequest{Items: chunk}, &resp); err != nil {
			return nil, err
		}
		if len(resp.Results) != len(chunk) {
			return nil, fmt.Errorf("daemon client: /v1/batch/search returned %d results for %d items: %w", len(resp.Results), len(chunk), ErrMalformedReply)
		}
		out = append(out, resp.Results...)
	}
	return out, nil
}

// CacheStats fetches the daemon's cache counters.
func (c *Client) CacheStats(ctx context.Context) (StatsResponse, error) {
	var resp StatsResponse
	err := c.get(ctx, "/v1/cache/stats", &resp)
	return resp, err
}

// GC asks the daemon to trim its store to the policy's bounds.
func (c *Client) GC(ctx context.Context, pol sweep.GCPolicy) (sweep.GCResult, error) {
	req := GCRequest{MaxEntries: pol.MaxEntries, MaxBytes: pol.MaxBytes}
	if pol.MaxAge > 0 {
		req.MaxAge = pol.MaxAge.String()
	}
	var resp sweep.GCResult
	err := c.post(ctx, "/v1/cache/gc", req, &resp)
	return resp, err
}
