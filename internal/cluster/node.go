package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/metrics"
	"gaussiancube/internal/serve"
	"gaussiancube/internal/wire"
)

// Config wires one serve.Server into a cluster.
type Config struct {
	// Server is the local instance. Required.
	Server *serve.Server
	// Topology maps ending classes to members. Required.
	Topology *Topology
	// Self is this instance's advertise address; it must match one
	// topology member. Required.
	Self string
	// GossipInterval paces the anti-entropy loop (default 500ms).
	GossipInterval time.Duration
	// StaleAfter is how many consecutive missed gossip rounds make a
	// peer count as partitioned (default 3). A partitioned or ahead
	// peer marks this instance's answers delivered-degraded.
	StaleAfter int
	// Dial overrides the transport to peers — the partition soak
	// plants its gate here. nil dials TCP.
	Dial func(addr string) (net.Conn, error)
}

func (c *Config) fill() error {
	if c.Server == nil || c.Topology == nil {
		return fmt.Errorf("cluster: Server and Topology are required")
	}
	if c.Topology.IndexOf(c.Self) < 0 {
		return fmt.Errorf("cluster: self %q is not a topology member", c.Self)
	}
	if c.GossipInterval <= 0 {
		c.GossipInterval = 500 * time.Millisecond
	}
	if c.StaleAfter <= 0 {
		c.StaleAfter = 3
	}
	return nil
}

// gossipTimeout bounds each dial and each epoch-sync call to a peer.
const gossipTimeout = 2 * time.Second

// peer is one remote member: the wire client the gossip loop pulls its
// frontier over, and the book-keeping that loop keeps.
type peer struct {
	addr string
	sync *serve.WireClient // gossip + epoch pulls

	mu           sync.Mutex
	epoch, fp    uint64
	reachable    bool
	missed       int  // consecutive failed gossip rounds
	wantSnapshot bool // next pull requests a full snapshot
}

func (p *peer) markReachable(epoch, fp uint64) {
	p.mu.Lock()
	p.epoch, p.fp, p.reachable, p.missed = epoch, fp, true, 0
	p.mu.Unlock()
}

func (p *peer) markMissed() {
	p.mu.Lock()
	p.reachable = false
	p.missed++
	p.mu.Unlock()
}

// Node runs the cluster duties of one instance: it gossips the fault
// frontier with every peer, pulls and applies what it is missing, and
// keeps the staleness mark honest. Nothing is forwarded: the Server
// answers every route and plans every collective it receives, under
// that mark. The topology's class ownership only tells clients where a
// request's cache is warm (OwnsLocally). Create with Start, stop with
// Close.
type Node struct {
	cfg  Config
	topo *Topology
	srv  *serve.Server
	self int
	// peers holds one entry per remote member, indexed by member
	// index; peers[self] is nil.
	peers []*peer

	epochSyncs metrics.Counter

	stop chan struct{}
	done chan struct{}
}

// Start validates the config, installs the ownership and
// observability hooks on the server, and launches the gossip loop.
func Start(cfg Config) (*Node, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	n := &Node{
		cfg:   cfg,
		topo:  cfg.Topology,
		srv:   cfg.Server,
		self:  cfg.Topology.IndexOf(cfg.Self),
		peers: make([]*peer, len(cfg.Topology.Members())),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	opts := serve.WireDialOptions{
		RetryBudget: 2,
		BackoffBase: 10 * time.Millisecond,
		BackoffMax:  100 * time.Millisecond,
		DialTimeout: gossipTimeout,
		CallTimeout: gossipTimeout,
		Dial:        cfg.Dial,
	}
	for i, m := range n.topo.Members() {
		if i == n.self {
			continue
		}
		n.peers[i] = &peer{
			addr: m.Addr,
			sync: serve.NewWireDialer(m.Addr, opts),
		}
	}
	n.srv.SetOwnership(n.Owns)
	n.srv.SetClusterInfo(n.snapshot)
	go n.loop()
	return n, nil
}

// Close stops the gossip loop, uninstalls the server hooks, and
// closes the peer connections.
func (n *Node) Close() {
	close(n.stop)
	<-n.done
	n.srv.SetOwnership(nil)
	n.srv.SetClusterInfo(nil)
	n.srv.SetEpochStale("")
	for _, p := range n.peers {
		if p != nil {
			_ = p.sync.Close()
		}
	}
}

// Owns reports whether the topology assigns src's ending class to this
// instance.
func (n *Node) Owns(src gc.NodeID) bool { return n.topo.OwnerOf(src) == n.self }

// ---------------------------------------------------------------------
// Gossip.

func (n *Node) loop() {
	defer close(n.done)
	t := time.NewTicker(n.cfg.GossipInterval)
	defer t.Stop()
	n.gossipOnce()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			n.gossipOnce()
		}
	}
}

func (n *Node) gossipOnce() {
	for _, p := range n.peers {
		if p == nil {
			continue
		}
		select {
		case <-n.stop:
			return
		default:
		}
		n.syncPeer(p)
	}
	n.updateStale()
}

// maxChaseRounds bounds how many back-to-back pulls one gossip round
// spends chasing a peer's SyncFlagMore truncation; the next tick picks
// up where this one left off.
const maxChaseRounds = 8

// syncPeer runs one anti-entropy exchange: send our frontier, apply
// whatever suffix (or snapshot) the peer is ahead by. Divergence
// triggers one immediate snapshot re-pull.
func (n *Node) syncPeer(p *peer) {
	for round := 0; round < maxChaseRounds; round++ {
		epoch, fp := n.srv.Frontier()
		req := wire.EpochSyncReq{Epoch: epoch, FP: fp}
		if p.wantSnapshot {
			req.Flags |= wire.SyncFlagWantSnapshot
		}
		var resp wire.EpochSyncResp
		if err := p.sync.EpochSync(req, &resp); err != nil {
			p.markMissed()
			return
		}
		p.markReachable(resp.Epoch, resp.FP)
		if len(resp.Batches) == 0 {
			p.wantSnapshot = false
			return // caught up, or we are the ahead side
		}
		n.epochSyncs.Inc()
		if err := n.applyBatches(&resp); err != nil {
			if errors.Is(err, serve.ErrSyncDiverged) && !p.wantSnapshot {
				p.wantSnapshot = true
				continue // immediate full-snapshot re-pull
			}
			return // journal refusal etc.: retry next tick
		}
		p.wantSnapshot = false
		if resp.Flags&wire.SyncFlagMore == 0 {
			return
		}
	}
}

func (n *Node) applyBatches(resp *wire.EpochSyncResp) error {
	snapshot := resp.Flags&wire.SyncFlagSnapshot != 0
	for i := range resp.Batches {
		b := &resp.Batches[i]
		if cur, _ := n.srv.Frontier(); !snapshot && b.Epoch <= cur {
			continue // another peer already delivered this step
		}
		events, err := serve.FaultEventsFromWire(b.Events)
		if err != nil {
			return err
		}
		if _, err := n.srv.ApplySyncBatch(b.Epoch, b.FP, events, snapshot); err != nil {
			return err
		}
	}
	return nil
}

// updateStale recomputes the degraded-read mark after a gossip pass:
// stale while any reachable peer's frontier is ahead of ours (we could
// not catch up this round), or while any peer has been unreachable
// long enough that we cannot rule out missed mutations behind the
// partition. The reason names the peer and the threshold, not the
// running count of missed rounds, so a cut member keeps one mark and
// answers a round apart carry the same reason.
func (n *Node) updateStale() {
	epoch, fp := n.srv.Frontier()
	for _, p := range n.peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		ahead := p.reachable && fault.CompareFrontier(epoch, fp, p.epoch, p.fp) < 0
		cut := !p.reachable && p.missed > n.cfg.StaleAfter
		pe, addr := p.epoch, p.addr
		p.mu.Unlock()
		if ahead {
			n.srv.SetEpochStale(fmt.Sprintf(
				"behind peer %s: local epoch %d, peer epoch %d", addr, epoch, pe))
			return
		}
		if cut {
			n.srv.SetEpochStale(fmt.Sprintf(
				"peer %s unreachable for more than %d gossip rounds; fault state may be behind", addr, n.cfg.StaleAfter))
			return
		}
	}
	n.srv.SetEpochStale("")
}

// ---------------------------------------------------------------------
// Observability.

// snapshot feeds the cluster section of /metrics and /healthz.
func (n *Node) snapshot() *serve.ClusterSnapshot {
	epoch, _ := n.srv.Frontier()
	cs := &serve.ClusterSnapshot{
		Self:       n.cfg.Self,
		Peers:      len(n.topo.Members()),
		EpochSyncs: n.epochSyncs.Value(),
	}
	for _, p := range n.peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		pp := serve.ClusterPeer{Addr: p.addr, Epoch: p.epoch, FP: p.fp, Reachable: p.reachable}
		p.mu.Unlock()
		if pp.Epoch > epoch {
			pp.EpochLag = int64(pp.Epoch - epoch)
			if pp.EpochLag > cs.EpochLag {
				cs.EpochLag = pp.EpochLag
			}
		}
		cs.PerPeer = append(cs.PerPeer, pp)
	}
	return cs
}
