package cluster

import (
	"fmt"
	"sync"

	"gaussiancube/internal/gc"
	"gaussiancube/internal/serve"
)

// Client is a cluster-aware wire client: it holds one reconnecting
// connection per member and sends each request straight to the owner
// of its source ending class, where that class's paths are cached.
// When the owner is unreachable it retries once on the ring successor,
// which answers the request itself — degraded-marked once it has lost
// a peer long enough to be stale.
type Client struct {
	topo *Topology
	opts serve.WireDialOptions

	mu    sync.Mutex
	conns []*serve.WireClient // lazily built, one per member
}

// NewClient builds a client over a validated topology. No connection
// is opened until the first request needs it.
func NewClient(topo *Topology, opts serve.WireDialOptions) *Client {
	return &Client{topo: topo, opts: opts, conns: make([]*serve.WireClient, len(topo.Members()))}
}

// conn returns (building if needed) the member's reconnecting client.
func (c *Client) conn(i int) *serve.WireClient {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conns[i] == nil {
		c.conns[i] = serve.NewWireDialer(c.topo.Members()[i].Addr, c.opts)
	}
	return c.conns[i]
}

// Route routes one pair at the owner of src's ending class, failing
// over once to the ring successor. Server-side verdicts (including
// *serve.WireStatusError) pass through; only when every tried member
// is unreachable does Route return a connection error.
func (c *Client) Route(src, dst gc.NodeID) (*serve.RouteResponse, error) {
	owner := c.topo.OwnerOf(src)
	if owner < 0 {
		return nil, fmt.Errorf("cluster: node %d outside GC(%d,2^%d)",
			src, c.topo.Cube().N(), c.topo.Cube().Alpha())
	}
	target := owner
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		resp, err := c.conn(target).Route(src, dst)
		if err == nil {
			return resp, nil
		}
		if _, isStatus := err.(*serve.WireStatusError); isStatus {
			return nil, err // the server answered; don't mask it with a retry
		}
		lastErr = err
		if target = c.topo.Successor(target); target == owner {
			break
		}
	}
	return nil, lastErr
}

// Close closes every member connection.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, wc := range c.conns {
		if wc != nil {
			_ = wc.Close()
		}
	}
}
