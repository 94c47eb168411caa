package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"gaussiancube/internal/core"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/wire"
)

// ErrConnClosed is the typed failure every connection-level WireClient
// error wraps: the server hung up, the dial-retry budget ran out, or
// an I/O error tore the stream mid-call. A batch that dies mid-read
// fails with it instead of leaving callers blocked; the connection is
// torn down so the next call redials (when the client owns an
// address). Check with errors.Is.
var ErrConnClosed = errors.New("gcwire: connection closed")

// WireDialOptions tunes a reconnecting client's dial behavior. Zero
// values pick the documented defaults.
type WireDialOptions struct {
	// RetryBudget bounds dial attempts per call (default 4). The first
	// attempt is immediate; each later one waits a backoff.
	RetryBudget int
	// BackoffBase is the first retry's wait (default 50ms); waits
	// double per attempt with ±50% jitter, capped at BackoffMax
	// (default 1s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// DialTimeout bounds each dial attempt (default 2s).
	DialTimeout time.Duration
	// CallTimeout, when positive, bounds every call: the client sets it
	// as a connection deadline per round trip.
	CallTimeout time.Duration
	// Dial overrides the transport — cluster tests plant partition
	// gates here. nil dials TCP.
	Dial func(addr string) (net.Conn, error)
}

func (o *WireDialOptions) fill() {
	if o.RetryBudget <= 0 {
		o.RetryBudget = 4
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = time.Second
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
}

// WireClient speaks the gcwire binary protocol: the fast twin of the
// HTTP Client. It lives next to the Server (not in pkg/gcube) so the
// serving benchmarks can drive it without an import cycle; the public
// facade aliases it.
//
// A client is safe for concurrent use but serializes requests on one
// connection; open one client per submitting goroutine for parallel
// load. Route and the cold-path calls allocate their responses;
// RouteBatch is the steady-state-zero-allocation path — it pipelines a
// whole batch in one write and decodes every reply into caller-reused
// WireRoute slots.
//
// A client built with an address (DialWire, NewWireDialer) reconnects
// automatically: when a call finds the connection torn, it redials
// with exponential backoff and jitter under the options' retry budget.
// A client wrapping a raw connection (NewWireClient) fails with
// ErrConnClosed once that connection dies.
type WireClient struct {
	mu      sync.Mutex
	addr    string // empty: wrapped conn, no redial
	opts    WireDialOptions
	c       net.Conn
	br      *bufio.Reader
	nextID  uint64
	wbuf    []byte
	payload []byte
	seen    []uint64 // RouteBatch per-slot answered bits, reused
	hdr     [wire.HeaderSize]byte
	redials int64
}

// DialWire connects to a gcserved binary listener (-wire-addr) with
// default options, failing fast if the first dial does.
func DialWire(addr string) (*WireClient, error) {
	w := NewWireDialer(addr, WireDialOptions{})
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.ensureConn(); err != nil {
		return nil, err
	}
	return w, nil
}

// NewWireDialer builds a reconnecting client for addr without dialing:
// the first call connects, and any torn connection is redialed per
// opts.
func NewWireDialer(addr string, opts WireDialOptions) *WireClient {
	opts.fill()
	return &WireClient{addr: addr, opts: opts, wbuf: make([]byte, 0, 64<<10)}
}

// NewWireClient wraps an established connection (no reconnect).
func NewWireClient(c net.Conn) *WireClient {
	w := &WireClient{wbuf: make([]byte, 0, 64<<10)}
	w.attach(c)
	w.opts.fill()
	return w
}

// attach installs a live connection. Caller holds mu (or owns w
// exclusively during construction).
func (w *WireClient) attach(c net.Conn) {
	w.c = c
	w.br = bufio.NewReaderSize(c, 64<<10)
}

// Close closes the connection (if any) and stops reconnecting until
// the next call.
func (w *WireClient) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.c == nil {
		return nil
	}
	err := w.c.Close()
	w.c, w.br = nil, nil
	return err
}

// Redials returns how many times the client re-established its
// connection.
func (w *WireClient) Redials() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.redials
}

// ensureConn dials (with backoff and jitter under the retry budget)
// when no connection is live. Caller holds mu.
func (w *WireClient) ensureConn() error {
	if w.c != nil {
		return nil
	}
	if w.addr == "" {
		return fmt.Errorf("%w: no address to redial", ErrConnClosed)
	}
	c, err := w.opts.dial(w.addr)
	if err != nil {
		return err
	}
	w.attach(c)
	w.redials++
	return nil
}

// dial connects to addr through the Dial override (TCP when nil),
// retrying with exponential backoff and jitter under the retry budget.
// Exhausting the budget fails with ErrConnClosed.
func (o *WireDialOptions) dial(addr string) (net.Conn, error) {
	dial := o.Dial
	if dial == nil {
		dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, o.DialTimeout)
		}
	}
	backoff := o.BackoffBase
	var lastErr error
	for attempt := 0; attempt < o.RetryBudget; attempt++ {
		if attempt > 0 {
			// Full jitter on the top half: wait in [backoff/2, backoff).
			time.Sleep(backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1)))
			if backoff *= 2; backoff > o.BackoffMax {
				backoff = o.BackoffMax
			}
		}
		c, err := dial(addr)
		if err == nil {
			return c, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("%w: dial %s after %d attempts: %v", ErrConnClosed, addr, o.RetryBudget, lastErr)
}

// fail tears down the connection after an I/O error so the next call
// redials, and wraps the error in ErrConnClosed.
func (w *WireClient) fail(err error) error {
	if w.c != nil {
		_ = w.c.Close()
		w.c, w.br = nil, nil
	}
	if errors.Is(err, ErrConnClosed) {
		return err
	}
	return fmt.Errorf("%w: %v", ErrConnClosed, err)
}

// begin readies the connection for one call: ensure it is live and arm
// the per-call deadline. Caller holds mu.
func (w *WireClient) begin() error {
	if err := w.ensureConn(); err != nil {
		return err
	}
	if w.opts.CallTimeout > 0 {
		if err := w.c.SetDeadline(time.Now().Add(w.opts.CallTimeout)); err != nil {
			return w.fail(err)
		}
	}
	return nil
}

// WireStatusError is a TypeError reply. Codes mirror the HTTP status
// mapping (400 bad request, 409 faulty endpoint, 429 backpressure,
// 503 draining).
type WireStatusError struct {
	Code uint16
	Msg  string
}

func (e *WireStatusError) Error() string {
	return fmt.Sprintf("gcwire: server returned %d: %s", e.Code, e.Msg)
}

// IsBackpressure reports a 429 reply — retry later.
func (e *WireStatusError) IsBackpressure() bool { return e.Code == wire.CodeBackpressure }

// readFrame blocks for the next frame; the returned payload slice is
// reused by the next call.
func (w *WireClient) readFrame() (wire.Header, []byte, error) {
	if _, err := io.ReadFull(w.br, w.hdr[:]); err != nil {
		return wire.Header{}, nil, err
	}
	h, err := wire.ParseHeader(w.hdr[:])
	if err != nil {
		return h, nil, err
	}
	if cap(w.payload) < int(h.Len) {
		w.payload = make([]byte, h.Len)
	}
	p := w.payload[:h.Len]
	if _, err := io.ReadFull(w.br, p); err != nil {
		return h, nil, err
	}
	return h, p, nil
}

// Route routes one pair and returns the JSON-shaped verdict, exactly
// like the HTTP client's Route. Error frames surface as
// *WireStatusError.
func (w *WireClient) Route(src, dst gc.NodeID) (*RouteResponse, error) {
	return w.RouteTree(src, dst, -1)
}

// RouteTree is Route with an explicit multipath tree pin; tree < 0
// leaves the server's per-flow striping in charge.
func (w *WireClient) RouteTree(src, dst gc.NodeID, tree int) (*RouteResponse, error) {
	var raw WireRoute
	var flags, treeByte uint8
	if tree >= 0 && tree <= 255 {
		flags, treeByte = wire.RouteFlagTree, uint8(tree)
	}
	if err := w.routeRawTree(src, dst, flags, treeByte, &raw); err != nil {
		return nil, err
	}
	if raw.ErrCode != 0 {
		return nil, &WireStatusError{Code: raw.ErrCode, Msg: string(raw.ErrMsg)}
	}
	out := &RouteResponse{
		Src:          src,
		Dst:          dst,
		Outcome:      core.Outcome(raw.Outcome).String(),
		Reason:       string(raw.Reason),
		Hops:         raw.Hops,
		Degraded:     raw.Flags&wire.FlagDegraded != 0,
		DetourHops:   raw.Detour,
		Retries:      int(raw.Retries),
		Replans:      int(raw.Replans),
		WaitCycles:   int(raw.WaitCycles),
		UsedFallback: raw.Flags&wire.FlagUsedFallback != 0,
		Discovered:   int(raw.Discovered),
		Epoch:        raw.Epoch,
		CacheHit:     raw.Flags&wire.FlagCacheHit != 0,
	}
	if raw.Tree >= 0 {
		t := raw.Tree
		out.Tree = &t
	}
	if len(raw.Path) > 0 {
		out.Path = append([]gc.NodeID(nil), raw.Path...)
	}
	return out, nil
}

// WireRoute is one RouteBatch slot. Its slices are reused across
// calls; copy anything that must outlive the next batch.
type WireRoute struct {
	// Outcome is the core.Outcome ladder value; meaningless when
	// ErrCode is set.
	Outcome    uint8
	Flags      uint8
	Hops       int
	Detour     int
	Retries    uint16
	Replans    uint16
	Discovered uint16
	WaitCycles uint32
	Epoch      uint64
	// Tree is the multipath tree the route was planned on, or -1 when
	// the reply carried no tree byte (single-tree server or v1 peer).
	Tree int
	// ErrCode is nonzero when the server answered this request with an
	// error frame (faulty endpoint, backpressure, drain); ErrMsg holds
	// its message.
	ErrCode uint16
	ErrMsg  []byte
	Reason  []byte
	Path    []gc.NodeID
}

// Delivered reports a delivered or delivered-degraded verdict.
func (r *WireRoute) Delivered() bool {
	return r.ErrCode == 0 &&
		(r.Outcome == uint8(core.OutcomeDelivered) || r.Outcome == uint8(core.OutcomeDeliveredDegraded))
}

// CacheHit reports the route came from the server's route cache.
func (r *WireRoute) CacheHit() bool { return r.Flags&wire.FlagCacheHit != 0 }

// Degraded reports a delivered-degraded verdict flag.
func (r *WireRoute) Degraded() bool { return r.Flags&wire.FlagDegraded != 0 }

// decodeRouteReply maps one reply to a route request onto a slot: a
// RouteResult fills the verdict, an ErrorFrame sets ErrCode and ErrMsg.
// The slot's slice capacity is reused. Any other frame type, or a
// payload that does not decode, is a protocol error.
func decodeRouteReply(t wire.Type, p []byte, out *WireRoute) error {
	out.ErrCode = 0
	switch t {
	case wire.TypeError:
		ef := wire.ErrorFrame{Msg: out.ErrMsg[:0]}
		if err := wire.DecodeError(p, &ef); err != nil {
			return err
		}
		out.ErrCode = ef.Code
		out.ErrMsg = ef.Msg
		return nil
	case wire.TypeRouteResult:
		res := wire.RouteResult{Reason: out.Reason[:0], Path: out.Path[:0]}
		if err := wire.DecodeRouteResult(p, &res); err != nil {
			return err
		}
		out.Outcome = res.Outcome
		out.Flags = res.Flags
		out.Hops = int(res.Hops)
		out.Detour = int(res.Detour)
		out.Retries = res.Retries
		out.Replans = res.Replans
		out.Discovered = res.Discovered
		out.WaitCycles = res.WaitCycles
		out.Epoch = res.Epoch
		out.Tree = -1
		if res.Flags&wire.FlagHasTree != 0 {
			out.Tree = int(res.Tree)
		}
		out.Reason = res.Reason
		out.Path = res.Path
		return nil
	default:
		return fmt.Errorf("unexpected reply type %d", t)
	}
}

// routeRawTree routes one pair into out, with request flags and the
// multipath tree byte (set wire.RouteFlagTree for the server to honor
// it). A server error frame lands in out.ErrCode/ErrMsg, not in the
// returned error, which reports only connection-level failures
// (wrapped in ErrConnClosed).
func (w *WireClient) routeRawTree(src, dst gc.NodeID, flags, tree uint8, out *WireRoute) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.begin(); err != nil {
		return err
	}
	id := w.nextID
	w.nextID++
	w.wbuf = wire.AppendRouteReq(w.wbuf[:0], id, wire.RouteReq{Src: src, Dst: dst, Flags: flags, Tree: tree})
	if _, err := w.c.Write(w.wbuf); err != nil {
		return w.fail(err)
	}
	h, p, err := w.readFrame()
	if err != nil {
		return w.fail(err)
	}
	if h.ID != id {
		return w.fail(fmt.Errorf("response id %d for request %d", h.ID, id))
	}
	if err := decodeRouteReply(h.Type, p, out); err != nil {
		return w.fail(err)
	}
	return nil
}

// RouteBatch pipelines len(pairs) route requests in one write and
// fills out[i] with the verdict for pairs[i], reusing each slot's
// slice capacity. Replies may arrive in any order; the request id
// correlates them. out must be at least
// as long as pairs. A connection torn mid-batch fails the whole call
// with ErrConnClosed — slots not yet answered hold stale data and must
// not be read.
func (w *WireClient) RouteBatch(pairs [][2]gc.NodeID, out []WireRoute) error {
	if len(out) < len(pairs) {
		return fmt.Errorf("gcwire: out has %d slots for %d pairs", len(out), len(pairs))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.begin(); err != nil {
		return err
	}
	base := w.nextID
	w.nextID += uint64(len(pairs))
	w.wbuf = w.wbuf[:0]
	for i, p := range pairs {
		w.wbuf = wire.AppendRouteReq(w.wbuf, base+uint64(i), wire.RouteReq{Src: p[0], Dst: p[1]})
	}
	if _, err := w.c.Write(w.wbuf); err != nil {
		return w.fail(err)
	}
	// Per-slot answered bits: a duplicate id would otherwise count as
	// "answered" while another slot's reply stays unread, silently
	// desyncing the stream for every later call on this connection.
	words := (len(pairs) + 63) / 64
	if cap(w.seen) < words {
		w.seen = make([]uint64, words)
	}
	w.seen = w.seen[:words]
	for i := range w.seen {
		w.seen[i] = 0
	}
	for answered := 0; answered < len(pairs); answered++ {
		h, p, err := w.readFrame()
		if err != nil {
			return w.fail(err)
		}
		if h.ID < base || h.ID >= base+uint64(len(pairs)) {
			return w.fail(fmt.Errorf("response id %d outside batch [%d,%d)", h.ID, base, base+uint64(len(pairs))))
		}
		slot := h.ID - base
		if w.seen[slot/64]&(1<<(slot%64)) != 0 {
			return w.fail(fmt.Errorf("duplicate response id %d in batch [%d,%d)", h.ID, base, base+uint64(len(pairs))))
		}
		w.seen[slot/64] |= 1 << (slot % 64)
		if err := decodeRouteReply(h.Type, p, &out[slot]); err != nil {
			return w.fail(err)
		}
	}
	return nil
}

// Broadcast serves one broadcast and returns the JSON-shaped verdict,
// exactly like the HTTP client's Broadcast.
func (w *WireClient) Broadcast(root gc.NodeID) (*CollectiveReply, error) {
	return w.collective(root, nil, false)
}

// Multicast serves one multicast and returns the JSON-shaped verdict;
// its destinations answer dests in request order.
func (w *WireClient) Multicast(root gc.NodeID, dests []gc.NodeID) (*CollectiveReply, error) {
	return w.collective(root, dests, true)
}

// collective sends one broadcast (or, with multicast, one multicast to
// dests) and decodes the correlated CollectiveResult reply. A server
// error frame surfaces as *WireStatusError.
func (w *WireClient) collective(root gc.NodeID, dests []gc.NodeID, multicast bool) (*CollectiveReply, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.begin(); err != nil {
		return nil, err
	}
	id := w.nextID
	w.nextID++
	if multicast {
		w.wbuf = wire.AppendMulticastReq(w.wbuf[:0], id, &wire.MulticastReq{Root: root, Dests: dests})
	} else {
		w.wbuf = wire.AppendBroadcastReq(w.wbuf[:0], id, wire.BroadcastReq{Root: root})
	}
	if _, err := w.c.Write(w.wbuf); err != nil {
		return nil, w.fail(err)
	}
	h, p, err := w.readFrame()
	if err != nil {
		return nil, w.fail(err)
	}
	if h.ID != id {
		return nil, w.fail(fmt.Errorf("response id %d for request %d", h.ID, id))
	}
	switch h.Type {
	case wire.TypeError:
		var ef wire.ErrorFrame
		if err := wire.DecodeError(p, &ef); err != nil {
			return nil, w.fail(err)
		}
		return nil, &WireStatusError{Code: ef.Code, Msg: string(ef.Msg)}
	case wire.TypeCollectiveResult:
		var res wire.CollectiveResult
		if err := wire.DecodeCollectiveResult(p, &res); err != nil {
			return nil, w.fail(err)
		}
		return collectiveReplyFromWire(&res), nil
	default:
		return nil, w.fail(fmt.Errorf("unexpected reply type %d", h.Type))
	}
}

// collectiveReplyFromWire lifts a binary result into the JSON document
// shape shared with the HTTP surface.
func collectiveReplyFromWire(res *wire.CollectiveResult) *CollectiveReply {
	out := &CollectiveReply{
		Origin:    res.Origin,
		Root:      res.Root,
		ReRooted:  res.Flags&wire.CollectiveFlagReRooted != 0,
		Degraded:  res.Flags&wire.CollectiveFlagDegradedEpoch != 0,
		Epoch:     res.Epoch,
		Delivered: int(res.Delivered),
		DegradedN: int(res.Degraded),
		Unreached: int(res.Unreached),
		Dests:     make([]DestOutcome, len(res.Dests)),
	}
	for i, d := range res.Dests {
		out.Dests[i] = DestOutcome{Dest: d.Dest, Outcome: core.Outcome(d.Outcome).String(), Hops: int(d.Hops)}
	}
	return out
}

// ApplyFaults applies a mutation batch atomically, exactly like the
// HTTP client's ApplyFaults. Op/Kind strings are the JSON verbs.
func (w *WireClient) ApplyFaults(ops []FaultOp) (*FaultsResponse, error) {
	wireOps := make([]wire.FaultOp, len(ops))
	for i, op := range ops {
		switch op.Op {
		case OpInject:
			wireOps[i].Op = wire.OpInject
		case OpRepair:
			wireOps[i].Op = wire.OpRepair
		case OpClear:
			wireOps[i].Op = wire.OpClear
		default:
			return nil, fmt.Errorf("gcwire: unknown fault op %q", op.Op)
		}
		switch op.Kind {
		case KindNode, "":
			wireOps[i].Kind = wire.KindNode
		case KindLink:
			wireOps[i].Kind = wire.KindLink
		default:
			return nil, fmt.Errorf("gcwire: unknown fault kind %q", op.Kind)
		}
		wireOps[i].Node = op.Node
		wireOps[i].Dim = uint16(op.Dim)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.begin(); err != nil {
		return nil, err
	}
	id := w.nextID
	w.nextID++
	w.wbuf = wire.AppendFaultsReq(w.wbuf[:0], id, wireOps)
	if _, err := w.c.Write(w.wbuf); err != nil {
		return nil, w.fail(err)
	}
	h, p, err := w.readFrame()
	if err != nil {
		return nil, w.fail(err)
	}
	switch h.Type {
	case wire.TypeError:
		var ef wire.ErrorFrame
		if err := wire.DecodeError(p, &ef); err != nil {
			return nil, w.fail(err)
		}
		return nil, &WireStatusError{Code: ef.Code, Msg: string(ef.Msg)}
	case wire.TypeFaultsResult:
		var fr wire.FaultsResult
		if err := wire.DecodeFaultsResult(p, &fr); err != nil {
			return nil, w.fail(err)
		}
		return &FaultsResponse{Epoch: fr.Epoch, Faults: int(fr.Faults), Applied: int(fr.Applied)}, nil
	default:
		return nil, w.fail(fmt.Errorf("unexpected reply type %d", h.Type))
	}
}

// EpochSync performs one anti-entropy pull: it sends this instance's
// frontier and decodes the peer's reply into a caller-reused response
// (the batch suffix, a snapshot, or nothing when the peer is not
// ahead).
func (w *WireClient) EpochSync(req wire.EpochSyncReq, into *wire.EpochSyncResp) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.begin(); err != nil {
		return err
	}
	id := w.nextID
	w.nextID++
	w.wbuf = wire.AppendEpochSyncReq(w.wbuf[:0], id, req)
	if _, err := w.c.Write(w.wbuf); err != nil {
		return w.fail(err)
	}
	h, p, err := w.readFrame()
	if err != nil {
		return w.fail(err)
	}
	switch h.Type {
	case wire.TypeError:
		var ef wire.ErrorFrame
		if err := wire.DecodeError(p, &ef); err != nil {
			return w.fail(err)
		}
		return &WireStatusError{Code: ef.Code, Msg: string(ef.Msg)}
	case wire.TypeEpochSyncResp:
		if err := wire.DecodeEpochSyncResp(p, into); err != nil {
			return w.fail(err)
		}
		return nil
	default:
		return w.fail(fmt.Errorf("unexpected reply type %d", h.Type))
	}
}

// Metrics scrapes the merged snapshot. The binary protocol carries the
// canonical JSON document (metrics are a cold path), so this decodes
// the same schema the HTTP surface serves.
func (w *WireClient) Metrics() (*MetricsSnapshot, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.begin(); err != nil {
		return nil, err
	}
	id := w.nextID
	w.nextID++
	w.wbuf = wire.AppendEmpty(w.wbuf[:0], wire.TypeMetricsReq, id)
	if _, err := w.c.Write(w.wbuf); err != nil {
		return nil, w.fail(err)
	}
	h, p, err := w.readFrame()
	if err != nil {
		return nil, w.fail(err)
	}
	if h.Type != wire.TypeMetricsResult {
		return nil, w.fail(fmt.Errorf("unexpected reply type %d", h.Type))
	}
	var m MetricsSnapshot
	if err := json.Unmarshal(p, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// Ping probes liveness and returns the server's current fault epoch.
func (w *WireClient) Ping() (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.begin(); err != nil {
		return 0, err
	}
	id := w.nextID
	w.nextID++
	w.wbuf = wire.AppendEmpty(w.wbuf[:0], wire.TypePing, id)
	if _, err := w.c.Write(w.wbuf); err != nil {
		return 0, w.fail(err)
	}
	h, p, err := w.readFrame()
	if err != nil {
		return 0, w.fail(err)
	}
	if h.Type != wire.TypePong {
		return 0, w.fail(fmt.Errorf("unexpected reply type %d", h.Type))
	}
	return wire.DecodePong(p)
}
