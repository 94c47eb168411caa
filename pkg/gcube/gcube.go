// Package gcube is the public facade of the Gaussian Cube routing
// reproduction (FFGCR: fault-tolerant routing for Gaussian Cubes using
// the Gaussian Tree). It re-exports the stable surface of the internal
// packages — topology, fault sets, the two routers behind the unified
// Routing interface, tracing, and the serving subsystem — so external
// importers (and cmd/gcserved's own client code) never reach into
// internal/*.
//
// The shapes are type aliases, not copies: a *gcube.Cube is the same
// type the internal engines operate on, so there is no conversion tax
// at the boundary and the zero-allocation guarantees of the hot path
// carry through unchanged.
//
// # Layers
//
//   - Topology: NewCube builds GC(n, 2^alpha); NodeID addresses nodes.
//   - Faults: NewFaultSet marks failed nodes/links; Freeze publishes a
//     set for concurrent readers; MutateCopy evolves it copy-on-write.
//   - Routing: NewRouter (whole-path planner) and NewAdaptiveRouter
//     (per-hop discovery) both satisfy Routing; RouteContext returns a
//     RouteReport whose Outcome ladder encodes the network verdict.
//     Both constructors take the same functional options (WithFaults,
//     WithSubstrate, WithTracer, WithTrees, WithTree); there is no
//     struct form.
//   - Serving: NewServer runs the sharded route server of
//     internal/serve in-process; NewHTTPHandler exposes it over
//     HTTP/JSON; Client speaks that protocol to a remote gcserved.
package gcube

import (
	"net"
	"net/http"

	"gaussiancube/internal/cluster"
	"gaussiancube/internal/core"
	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/mtree"
	"gaussiancube/internal/serve"
	"gaussiancube/internal/trace"
)

// NodeID addresses one node of a Gaussian Cube; values are the
// paper's binary node labels.
type NodeID = gc.NodeID

// Cube is the GC(n, 2^alpha) topology: link queries, ending classes,
// distances, GEEC structure.
type Cube = gc.Cube

// NewCube constructs GC(n, 2^alpha). It panics when alpha is 0 or
// n < alpha (no such Gaussian Cube).
func NewCube(n, alpha uint) *Cube { return gc.New(n, alpha) }

// FaultSet is a mutable set of failed nodes and links over one cube.
// Hand a set to a router only after Freeze (or build successors with
// MutateCopy); the frozen flag is checked atomically, so publication
// through an atomic pointer is race-free.
type FaultSet = fault.Set

// NewFaultSet returns an empty fault set over c.
func NewFaultSet(c *Cube) *FaultSet { return fault.NewSet(c) }

// Router is the whole-path FFGCR planner (zero-allocation hot path,
// BFS last resort, optional tree-repair detours).
type Router = core.Router

// AdaptiveRouter steps packets hop by hop, discovering faults through
// a local oracle instead of global knowledge.
type AdaptiveRouter = core.AdaptiveRouter

// Oracle is the adaptive router's window onto ground truth: the
// fault-status queries a node can answer about its own links. A frozen
// *FaultSet implements it.
type Oracle = core.Oracle

// Routing is the unified routing interface both routers satisfy:
// context-aware, one report envelope, cancellation surfaced as
// OutcomeCanceled rather than an error.
type Routing = core.Routing

// RouteReport is the unified verdict envelope of Routing.RouteContext.
type RouteReport = core.RouteReport

// Outcome is the terminal-classification ladder of a routed request.
type Outcome = core.Outcome

// Outcome ladder.
const (
	OutcomePending                  = core.OutcomePending
	OutcomeDelivered                = core.OutcomeDelivered
	OutcomeDeliveredDegraded        = core.OutcomeDeliveredDegraded
	OutcomeUndeliverable            = core.OutcomeUndeliverable
	OutcomeUndeliverablePartitioned = core.OutcomeUndeliverablePartitioned
	OutcomeCanceled                 = core.OutcomeCanceled
)

// Routing errors (caller mistakes; network verdicts ride the ladder).
var (
	ErrFaultyEndpoint = core.ErrFaultyEndpoint
	ErrUnreachable    = core.ErrUnreachable
	ErrPartitioned    = core.ErrPartitioned
)

// Substrate selects the intra-GEEC fault-tolerant hypercube router.
type Substrate = core.Substrate

// Substrate choices.
const (
	SubstrateAdaptive = core.SubstrateAdaptive
	SubstrateSafety   = core.SubstrateSafety
	SubstrateVector   = core.SubstrateVector
)

// Option configures NewRouter and NewAdaptiveRouter. Options are the
// only constructor surface: every router knob — faults, substrate,
// tracing, multipath trees — is an Option; the With* helpers below
// compose freely and unset knobs keep their zero-value defaults.
type Option = core.Option

// WithFaults routes the planner around the given (frozen) fault set.
// The adaptive router ignores it: its oracle is the ground truth.
func WithFaults(s *FaultSet) Option { return core.WithFaults(s) }

// WithSubstrate selects the intra-class fault-tolerant router.
func WithSubstrate(s Substrate) Option { return core.WithSubstrate(s) }

// WithTracer attaches a trace sink to either router.
func WithTracer(t Tracer) Option { return core.WithTracer(t) }

// NewRouter builds the FFGCR planner over cube c.
func NewRouter(c *Cube, opts ...Option) *Router { return core.NewRouter(c, opts...) }

// Multipath: k edge-disjoint spanning realizations over the cube's
// frames (DESIGN.md §15). A TreeSet stripes flows across trees; a
// router holding one plans every route on the tree the request
// resolves to, and the adaptive router fails over to a sibling tree
// when it discovers a fault on a crossing.
type TreeSet = mtree.TreeSet

// TreeAuto asks the router (or server) to pick the tree per flow by
// hashing source and destination — the default for unpinned requests.
const TreeAuto = core.TreeAuto

// NewTreeSet partitions cube c's frames into k striped trees; k must
// be a power of two no larger than the frame count.
func NewTreeSet(c *Cube, k int) (*TreeSet, error) { return mtree.New(c, k) }

// WithTrees stripes the router's plans across ts per flow (TreeAuto).
func WithTrees(ts *TreeSet) Option { return core.WithTrees(ts) }

// WithTree pins every plan to one tree of ts.
func WithTree(ts *TreeSet, tree int) Option { return core.WithTree(ts, tree) }

// NewAdaptiveRouter builds a per-hop adaptive router over cube c with
// ground truth oracle (nil means fault-free), configured by the same
// options as NewRouter.
func NewAdaptiveRouter(c *Cube, oracle Oracle, opts ...Option) *AdaptiveRouter {
	return core.NewAdaptiveRouter(c, oracle, opts...)
}

// Tracer receives structured routing events; TraceRing is the bounded
// lock-free implementation the observability stack uses.
type (
	Tracer     = trace.Tracer
	TraceEvent = trace.Event
	TraceRing  = trace.Ring
)

// NewTraceRing returns a bounded concurrent event ring.
func NewTraceRing(capacity int) *TraceRing { return trace.NewRing(capacity) }

// Serving subsystem: the sharded route server of internal/serve,
// embeddable in-process or exposed over HTTP.
type (
	Server          = serve.Server
	ServerConfig    = serve.Config
	ServerResponse  = serve.Response
	RouteRequest    = serve.RouteRequest
	RouteResponse   = serve.RouteResponse
	FaultOp         = serve.FaultOp
	FaultsResponse  = serve.FaultsResponse
	MetricsSnapshot = serve.MetricsSnapshot
)

// Collectives: one-to-all broadcast and one-to-many multicast planned
// on the Gaussian tree, with closed-form re-rooting when the origin is
// faulty (DESIGN.md §14). Server.SubmitBroadcast/SubmitMulticast plan
// them on the caller under the same per-shard in-flight bound as
// unicast; the per-destination verdicts ride the same Outcome ladder.
type (
	// CollectiveReport is the planner's verdict: effective root,
	// re-rooting flag, and one DestStatus per destination with the
	// delivered + degraded + unreached == destinations conservation law.
	CollectiveReport = core.CollectiveReport
	// DestStatus is one destination's outcome and tree depth (hops).
	DestStatus = core.DestStatus
	// BroadcastTree is the delivery tree a collective plan realizes.
	BroadcastTree = core.BroadcastTree
	// CollectiveResponse is the served envelope: report, epoch, and the
	// degraded-view marking.
	CollectiveResponse = serve.CollectiveResponse
	// CollectiveRequest is the HTTP/JSON request of POST /broadcast and
	// POST /multicast (Dests empty for broadcast).
	CollectiveRequest = serve.CollectiveRequest
	// CollectiveReply is the HTTP/JSON reply envelope.
	CollectiveReply = serve.CollectiveReply
	// CollectiveTotals is the collectives section of MetricsSnapshot.
	CollectiveTotals = serve.CollectiveTotals
)

// Durability: the append-only fault journal of internal/journal,
// attached via ServerConfig.Journal. Every ApplyFaults batch is made
// durable (checksummed, hash-chained, fsynced) before it is
// acknowledged or visible; on restart the server replays the journal
// to the exact epoch and fingerprint before the first router swap.
type (
	// JournalConfig enables journaling: Dir is the journal directory,
	// Sync the group-commit window (0 = fsync every mutation),
	// SnapshotEvery the checkpoint-and-compact cadence in batches.
	JournalConfig = serve.JournalConfig
	// JournalSnapshot is the journal slice of MetricsSnapshot and
	// /healthz: state (replaying|ok|lagging|failed), last committed
	// epoch, append/fsync/lag counters.
	JournalSnapshot = serve.JournalSnapshot
)

// ErrJournal wraps every journal failure ApplyFaults can return — the
// mutation was refused, never applied. HTTP maps it to 500, gcwire to
// CodeInternal.
var ErrJournal = serve.ErrJournal

// Fault mutation verbs and kinds for FaultOp.
const (
	OpInject = serve.OpInject
	OpRepair = serve.OpRepair
	OpClear  = serve.OpClear

	KindNode = serve.KindNode
	KindLink = serve.KindLink
)

// Submission errors of Server.SubmitTree.
var (
	ErrBackpressure = serve.ErrBackpressure
	ErrDraining     = serve.ErrDraining
)

// NewServer builds a route server, ready to serve on return. Shut it
// down with Server.Shutdown.
func NewServer(cfg ServerConfig) (*Server, error) { return serve.New(cfg) }

// NewHTTPHandler exposes a Server over HTTP/JSON (/route, /faults,
// /metrics, /debug/traces, /healthz, pprof).
func NewHTTPHandler(s *Server) http.Handler { return serve.NewHandler(s) }

// Binary wire surface: the gcwire protocol of internal/wire, the fast
// twin of the HTTP layer (DESIGN.md §11). WireServer fronts a Server
// on a TCP listener; WireClient pipelines batches against it with
// steady-state-zero allocations.
type (
	WireServer      = serve.WireServer
	WireClient      = serve.WireClient
	WireRoute       = serve.WireRoute
	WireStatusError = serve.WireStatusError
)

// NewWireServer wraps a listener around a running Server; call Serve
// to accept and Close to stop.
func NewWireServer(s *Server, ln net.Listener) *WireServer { return serve.NewWireServer(s, ln) }

// DialWire connects a binary client to a gcwire listener.
func DialWire(addr string) (*WireClient, error) { return serve.DialWire(addr) }

// NewWireClient wraps an established connection.
func NewWireClient(c net.Conn) *WireClient { return serve.NewWireClient(c) }

// WireDialOptions tunes the reconnecting wire client built by
// NewWireDialer: bounded dial-retry budget, exponential backoff with
// jitter, per-call deadline, and an overridable transport.
type WireDialOptions = serve.WireDialOptions

// ErrConnClosed wraps every connection-level wire-client failure —
// dial budget exhausted, the server hung up mid-batch, or a call on a
// torn connection. The next call on an address-bound client redials.
var ErrConnClosed = serve.ErrConnClosed

// NewWireDialer returns a wire client bound to an address that dials
// lazily and redials after connection failures, within opts' budget.
func NewWireDialer(addr string, opts WireDialOptions) *WireClient {
	return serve.NewWireDialer(addr, opts)
}

// Cluster: several gcserved instances serving one cube (DESIGN.md
// §13). A topology assigns each member a contiguous range of ending
// classes, which clients follow so a request lands where its cache is
// warm. Every member answers every route, broadcast and multicast it
// receives, whoever owns the source class, and fault mutations
// converge by anti-entropy gossip on the (epoch, fingerprint)
// frontier. Instances that trail a peer or are cut off from their
// peers keep serving but stamp answers delivered-degraded.
type (
	// ClusterMember is one instance: a wire address owning the
	// inclusive ending-class range [Lo, Hi].
	ClusterMember = cluster.Member
	// ClusterTopology is a validated class-ownership map; build with
	// NewClusterTopology.
	ClusterTopology = cluster.Topology
	// ClusterConfig wires a local Server into a topology.
	ClusterConfig = cluster.Config
	// ClusterNode runs one instance's cluster duties (gossip,
	// staleness marking, the ownership predicate behind
	// Server.OwnsLocally); create with StartCluster.
	ClusterNode = cluster.Node
	// ClusterClient routes each request directly at the owner of its
	// source ending class, with one ring-successor failover.
	ClusterClient = cluster.Client
	// ClusterSnapshot is the cluster section of /metrics and /healthz.
	ClusterSnapshot = serve.ClusterSnapshot
)

// ParseClusterMembers parses the -class-ranges form
// "0-1@host:port,2@host:port"; a bare class is a one-class range.
func ParseClusterMembers(spec string) ([]ClusterMember, error) { return cluster.ParseMembers(spec) }

// SplitClusterEven slices `classes` ending classes into n contiguous
// [lo, hi] ranges as evenly as possible — the default layout when
// operators give -peers addresses without explicit ranges.
func SplitClusterEven(classes, n int) ([][2]int, error) { return cluster.SplitEven(classes, n) }

// NewClusterTopology validates members against the cube: every ending
// class owned exactly once, every address unique.
func NewClusterTopology(c *Cube, members []ClusterMember) (*ClusterTopology, error) {
	return cluster.New(c, members)
}

// StartCluster installs the ownership and observability hooks on
// cfg.Server and launches the gossip loop. Stop with ClusterNode.Close.
func StartCluster(cfg ClusterConfig) (*ClusterNode, error) { return cluster.Start(cfg) }

// NewClusterClient builds an ownership-following client over a
// topology; connections are dialed lazily per member.
func NewClusterClient(topo *ClusterTopology, opts WireDialOptions) *ClusterClient {
	return cluster.NewClient(topo, opts)
}
