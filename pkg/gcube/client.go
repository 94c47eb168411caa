package gcube

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Client speaks the gcserved HTTP/JSON protocol: the remote
// counterpart of Server.SubmitTree. The zero value is not usable; call
// NewClient.
type Client struct {
	base string
	http *http.Client
}

// NewClient returns a client for a gcserved instance at base (e.g.
// "http://localhost:8321"). httpClient may be nil for
// http.DefaultClient; set a per-client timeout there, or bound each
// call with its context.
func NewClient(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), http: httpClient}
}

// StatusError is a non-2xx server reply: the routing-level outcomes
// (undeliverable, canceled, ...) are 200s and never produce one.
type StatusError struct {
	Code int
	Body string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("gcube: server returned %d: %s", e.Code, e.Body)
}

// IsBackpressure reports a 429 reply — the request's shard already had
// its bound of requests in flight — which should be retried after its
// Retry-After hint.
func (e *StatusError) IsBackpressure() bool { return e.Code == http.StatusTooManyRequests }

func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return err
	}
	// 409 (faulty endpoint) still carries a RouteResponse envelope;
	// surface it as a decoded body plus the status error.
	if resp.StatusCode/100 != 2 {
		if out != nil {
			_ = json.Unmarshal(raw, out)
		}
		return &StatusError{Code: resp.StatusCode, Body: strings.TrimSpace(string(raw))}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// Route routes src -> dst on the server and returns its wire verdict.
// The error is transport- or status-level; routing verdicts (including
// undeliverable and canceled) arrive inside the RouteResponse.
func (c *Client) Route(ctx context.Context, src, dst NodeID) (*RouteResponse, error) {
	var out RouteResponse
	err := c.do(ctx, http.MethodPost, "/route", RouteRequest{Src: src, Dst: dst}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// RouteTree is Route pinned to one multipath tree of the server's
// TreeSet; the reply's Tree field echoes the tree the path was
// planned on. Use Route for the per-flow default.
func (c *Client) RouteTree(ctx context.Context, src, dst NodeID, tree int) (*RouteResponse, error) {
	var out RouteResponse
	req := RouteRequest{Src: src, Dst: dst}
	if tree >= 0 {
		req.Tree = &tree
	}
	err := c.do(ctx, http.MethodPost, "/route", req, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Broadcast plans a one-to-all broadcast rooted at root. A faulty
// root re-roots via the closed-form NewSource rule; the reply carries
// one per-destination verdict for every node but the root.
func (c *Client) Broadcast(ctx context.Context, root NodeID) (*CollectiveReply, error) {
	var out CollectiveReply
	err := c.do(ctx, http.MethodPost, "/broadcast", CollectiveRequest{Root: root}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Multicast plans a one-to-many multicast from root to dests; verdicts
// come back in request order (duplicates answered consistently).
func (c *Client) Multicast(ctx context.Context, root NodeID, dests []NodeID) (*CollectiveReply, error) {
	var out CollectiveReply
	err := c.do(ctx, http.MethodPost, "/multicast", CollectiveRequest{Root: root, Dests: dests}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// ApplyFaults applies a batch of fault mutations atomically and
// returns the new epoch.
func (c *Client) ApplyFaults(ctx context.Context, ops []FaultOp) (*FaultsResponse, error) {
	var out FaultsResponse
	if err := c.do(ctx, http.MethodPost, "/faults", ops, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Metrics scrapes the merged metrics snapshot.
func (c *Client) Metrics(ctx context.Context) (*MetricsSnapshot, error) {
	var out MetricsSnapshot
	if err := c.do(ctx, http.MethodGet, "/metrics", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Healthz probes liveness; a draining server returns a StatusError
// with code 503.
func (c *Client) Healthz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}
