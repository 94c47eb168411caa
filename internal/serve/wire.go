package serve

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gaussiancube/internal/core"
	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/wire"
)

// WireServer is the gcwire binary front end: a TCP listener speaking
// the internal/wire framing on top of the same Server the HTTP layer
// serves (DESIGN.md §11).
//
// The throughput design is one reader goroutine per connection that
// answers every cache hit itself: frames are decoded straight off the
// connection's buffered reader, each RouteReq first tries the
// Server.FastRouteTree cache lookup, and hits are encoded into a
// per-connection write buffer that is flushed in one syscall once the
// reader has drained what the client pipelined. The reader accounts
// its hits in a private per-shard tally and publishes it into the
// shared counters just before each flush's write, so a burst of hits
// writes shared state a few times per shard, not a dozen times per
// hit, and every reply a client reads is already counted served. A
// steady-state hit therefore costs zero heap allocations and no
// goroutine switch.
//
// A miss is answered on the reader too, with no goroutine handoff: the
// reader loads the shard's routers and runs the step every unicast miss
// takes (Server.serveRoute: deadline, degrade-window cache probe,
// planner, cache store, accounting, degrade marking) into a
// per-connection plan buffer, then encodes the reply into the same
// write buffer as its hits, so the burst's replies leave in its one
// flush. A planner-mode miss allocates nothing. One drain hold per
// burst (Server.holdDrain) keeps Shutdown waiting until every miss the
// reader has accepted is answered. The shards' in-flight bound does not
// apply to wire misses: a client that pipelines faster than its reader
// plans is slowed by TCP flow control, and one that stops reading
// parks only its own reader once flushAt bytes wait for the socket.
// Only a collective (a whole-plan computation the reader must not wait
// on) runs on a goroutine of its own, which plans it under its shard's
// in-flight bound, appends its reply to the connection's writeCombiner
// and flushes it itself. Out-of-order replies are the protocol's
// contract, correlated by request id.
type WireServer struct {
	srv *Server
	ln  net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]*wireConn
	closed bool
	wg     sync.WaitGroup
}

// NewWireServer wraps an accepted listener around a running Server.
// Call Serve to start accepting; Close to stop.
func NewWireServer(s *Server, ln net.Listener) *WireServer {
	return &WireServer{srv: s, ln: ln, conns: make(map[net.Conn]*wireConn)}
}

// Addr returns the listener's address.
func (ws *WireServer) Addr() net.Addr { return ws.ln.Addr() }

// Serve accepts connections until the listener fails or Close is
// called (which returns nil).
func (ws *WireServer) Serve() error {
	for {
		c, err := ws.ln.Accept()
		if err != nil {
			ws.mu.Lock()
			closed := ws.closed
			ws.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		ws.mu.Lock()
		if ws.closed {
			ws.mu.Unlock()
			c.Close()
			return nil
		}
		wc := &wireConn{out: newWriteCombiner(c)}
		ws.conns[c] = wc
		ws.wg.Add(1)
		ws.mu.Unlock()
		go ws.handleConn(c, wc)
	}
}

// Close stops accepting, closes every live connection and waits for
// their handlers to finish, each after its in-flight requests are
// answered.
func (ws *WireServer) Close() error {
	ws.mu.Lock()
	if ws.closed {
		ws.mu.Unlock()
		ws.wg.Wait()
		return nil
	}
	ws.closed = true
	err := ws.ln.Close()
	for c := range ws.conns {
		c.Close()
	}
	ws.mu.Unlock()
	ws.wg.Wait()
	return err
}

// wireConn is one connection's reply side: the combiner every reply
// frame goes through, and the collectives answered off the reader that
// still owe a reply.
type wireConn struct {
	out      *writeCombiner
	inflight sync.WaitGroup
}

// cachedDetourReason is the fast path's preencoded degraded reason —
// the byte twin of cachedReport's "cached detour".
var cachedDetourReason = []byte("cached detour")

// wakeIdleP starts a goroutine that does nothing, which makes the Go
// runtime wake an idle P, if there is one, to run it; that P first
// runs its expired timers. A reader answers hits and misses itself and
// readies no other goroutine, and while one connection's
// request/reply exchange keeps the runtime's netpoller handing the
// connection's goroutines to one P, timers parked on an idle P (the
// journal's group-commit window, request deadlines) are not run until
// the exchange pauses or a GC starts: beside one busy connection,
// fault acks took ~1–2 s on all-miss traffic and ~30–50 ms on all-hit
// traffic instead of ~3 ms. A reader wakes one at its flush at most
// every idleWakeEvery, which bounds how late such a timer fires: a
// wake per burst cost wire-churn ~25% of its batch latency, one per
// 2 ms a few percent.
func wakeIdleP() { go func() {}() }

// idleWakeEvery is the most time a busy reader lets pass between two
// wakeIdleP calls.
const idleWakeEvery = 2 * time.Millisecond

func (ws *WireServer) handleConn(c net.Conn, wc *wireConn) {
	defer ws.wg.Done()
	br := bufio.NewReaderSize(c, 64<<10)
	var hdr [wire.HeaderSize]byte
	payload := make([]byte, 0, 4096)
	wbuf := make([]byte, 0, 64<<10)
	var res wire.RouteResult // reused fast-path encode scratch
	var req wire.RouteReq
	var ops []wire.FaultOp
	var pb planBuf // the reader's misses are planned into it
	// flushAt is a syscall's worth of batching for the reader's
	// replies, and the most reply bytes the connection queues before the
	// reader stops reading: a client that does not read its replies
	// stalls its own reader, and nothing else.
	flushAt := 256 << 10

	// hits accounts the reader's cache hits. It is published before every
	// write of the replies they answer, so a client never reads a reply
	// that Served has not counted (a miss is counted before its reply is
	// encoded).
	hits := ws.srv.newHitTally()
	// held is the burst's drain hold (Server.holdDrain), taken at its
	// first miss and released before the reader can block: on a write,
	// or on a read of bytes not yet buffered.
	held := false
	release := func() {
		if held {
			ws.srv.releaseDrain()
			held = false
		}
	}
	var woke time.Time // the reader's last wakeIdleP
	flush := func() bool {
		release()
		hits.publish(ws.srv)
		if now := time.Now(); now.Sub(woke) > idleWakeEvery {
			woke = now
			wakeIdleP()
		}
		err := wc.out.flush(wbuf, flushAt)
		wbuf = wbuf[:0]
		return err == nil
	}

read:
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			break
		}
		h, err := wire.ParseHeader(hdr[:])
		if err != nil {
			// A malformed header poisons the stream: answer once, hang up.
			wbuf = wire.AppendError(wbuf, 0, wire.CodeBadRequest, err.Error())
			break
		}
		if cap(payload) < int(h.Len) {
			payload = make([]byte, h.Len)
		}
		payload = payload[:h.Len]
		if br.Buffered() < len(payload) {
			release()
		}
		if _, err := io.ReadFull(br, payload); err != nil {
			break
		}

		switch h.Type {
		case wire.TypeRouteReq:
			if err := wire.DecodeRouteReq(payload, &req); err != nil {
				wbuf = wire.AppendError(wbuf, h.ID, wire.CodeBadRequest, err.Error())
				break
			}
			tree := core.TreeAuto
			if req.Flags&wire.RouteFlagTree != 0 {
				tree = int(req.Tree)
			}
			if sh, ans, ok := ws.srv.lookupHit(req.Src, req.Dst, tree); ok {
				hits.add(sh, &ans)
				res.Outcome = uint8(core.OutcomeDelivered)
				res.Flags = wire.FlagCacheHit
				res.Reason = res.Reason[:0]
				if ans.DetourHops > 0 {
					res.Outcome = uint8(core.OutcomeDeliveredDegraded)
					res.Flags |= wire.FlagDegraded
					res.Reason = cachedDetourReason
				}
				res.Tree = 0
				if ans.Tree >= 0 && ans.Tree <= 255 {
					res.Flags |= wire.FlagHasTree
					res.Tree = uint8(ans.Tree)
				}
				res.Hops = uint16(len(ans.Path) - 1)
				res.Detour = uint16(ans.DetourHops)
				res.Retries, res.Replans, res.Discovered, res.WaitCycles = 0, 0, 0, 0
				res.Epoch = ans.Epoch
				res.Path = ans.Path
				wbuf = wire.AppendRouteResult(wbuf, h.ID, &res)
				break
			}
			// A miss is planned here. Every member answers every request
			// it receives, whoever owns the source class, so the
			// NoForward flag changes nothing.
			if !held && !ws.srv.holdDrain() {
				wbuf = appendRefusal(wbuf, h.ID, ErrDraining)
				break
			}
			held = true
			resp, err := ws.srv.routeHere(time.Duration(req.DeadlineMS)*time.Millisecond, req.Src, req.Dst, tree, &pb)
			wbuf = appendRouteReply(wbuf, h.ID, resp, err)
		case wire.TypeBroadcastReq:
			var breq wire.BroadcastReq
			if err := wire.DecodeBroadcastReq(payload, &breq); err != nil {
				wbuf = wire.AppendError(wbuf, h.ID, wire.CodeBadRequest, err.Error())
				break
			}
			ws.collectiveMiss(wc, h.ID, breq.Root, nil, false, breq.DeadlineMS)
		case wire.TypeMulticastReq:
			var mreq wire.MulticastReq
			if err := wire.DecodeMulticastReq(payload, &mreq); err != nil {
				wbuf = wire.AppendError(wbuf, h.ID, wire.CodeBadRequest, err.Error())
				break
			}
			// The decoded list aliases the reused payload buffer; the miss
			// goroutine outlives this read loop iteration, so copy.
			dests := append([]gc.NodeID(nil), mreq.Dests...)
			ws.collectiveMiss(wc, h.ID, mreq.Root, dests, true, mreq.DeadlineMS)
		case wire.TypeFaultsReq:
			if err := wire.DecodeFaultsReq(payload, &ops); err != nil {
				wbuf = wire.AppendError(wbuf, h.ID, wire.CodeBadRequest, err.Error())
				break
			}
			wbuf = ws.applyFaults(wbuf, h.ID, ops)
		case wire.TypeMetricsReq:
			doc, err := ws.srv.Metrics().JSON()
			if err != nil {
				wbuf = wire.AppendError(wbuf, h.ID, wire.CodeBadRequest, err.Error())
				break
			}
			wbuf = wire.AppendHeader(wbuf, wire.TypeMetricsResult, h.ID, len(doc))
			wbuf = append(wbuf, doc...)
		case wire.TypeEpochSyncReq:
			var sreq wire.EpochSyncReq
			if err := wire.DecodeEpochSyncReq(payload, &sreq); err != nil {
				wbuf = wire.AppendError(wbuf, h.ID, wire.CodeBadRequest, err.Error())
				break
			}
			wbuf = ws.epochSync(wbuf, h.ID, sreq)
		case wire.TypePing:
			wbuf = wire.AppendPong(wbuf, h.ID, ws.srv.Epoch())
		default:
			// Server-inbound streams carry requests only.
			wbuf = wire.AppendError(wbuf, h.ID, wire.CodeBadRequest, "wire: unexpected frame type")
		}

		// Flush once the client's pipelined burst is drained, or once the
		// reader's buffer or the connection's queue has grown past
		// flushAt; the latter waits for the socket before reading on.
		if (br.Buffered() < wire.HeaderSize && len(wbuf) > 0) || len(wbuf) > flushAt || wc.out.queuedBytes() > flushAt {
			if !flush() {
				break read
			}
		}
	}
	flush()
	// Let in-flight collectives answer; each flushes its own reply before
	// it is done.
	wc.inflight.Wait()
	ws.mu.Lock()
	delete(ws.conns, c)
	ws.mu.Unlock()
	c.Close()
}

// appendRouteReply encodes one unicast answer as its reply frame: an
// error frame for a refusal (err) or a request-level failure
// (resp.Err), the RouteResult otherwise.
func appendRouteReply(dst []byte, id uint64, resp *Response, err error) []byte {
	switch {
	case err != nil:
		return appendRefusal(dst, id, err)
	case resp.Err != nil:
		code := wire.CodeBadRequest
		if errors.Is(resp.Err, core.ErrFaultyEndpoint) {
			code = wire.CodeFaultyNode
		}
		return wire.AppendError(dst, id, code, resp.Err.Error())
	}
	rep := resp.Report
	res := wire.RouteResult{
		Outcome:    uint8(rep.Outcome),
		Hops:       uint16(rep.Hops),
		Detour:     uint16(rep.DetourHops),
		Retries:    uint16(rep.Retries),
		Replans:    uint16(rep.Replans),
		Discovered: uint16(len(rep.Discovered)),
		WaitCycles: uint32(rep.WaitCycles),
		Epoch:      resp.Epoch,
		Reason:     []byte(rep.Reason),
		Path:       rep.Path,
	}
	if resp.CacheHit {
		res.Flags |= wire.FlagCacheHit
	}
	if rep.Outcome == core.OutcomeDeliveredDegraded {
		res.Flags |= wire.FlagDegraded
	}
	if rep.UsedFallback {
		res.Flags |= wire.FlagUsedFallback
	}
	if rep.TreeID >= 0 && rep.TreeID <= 255 {
		res.Flags |= wire.FlagHasTree
		res.Tree = uint8(rep.TreeID)
	}
	return wire.AppendRouteResult(dst, id, &res)
}

// appendRefusal encodes a submission-level refusal as its error frame,
// in the HTTP layer's status vocabulary: 429 backpressure, 503 drain,
// 400 anything else.
func appendRefusal(dst []byte, id uint64, err error) []byte {
	code := wire.CodeBadRequest
	switch {
	case errors.Is(err, ErrBackpressure):
		code = wire.CodeBackpressure
	case errors.Is(err, ErrDraining):
		code = wire.CodeDraining
	}
	return wire.AppendError(dst, id, code, err.Error())
}

// collectiveMiss plans a broadcast/multicast request on a goroutine of
// its own, off the reader — a collective is always a whole-plan
// computation, never a cache hit — and sends its CollectiveResult frame
// through the connection's combiner. The frame's Flags byte is not read: a
// collective is planned on the member that receives it, so NoForward
// changes nothing.
func (ws *WireServer) collectiveMiss(wc *wireConn, id uint64, root gc.NodeID, dests []gc.NodeID, multicast bool, deadlineMS uint32) {
	wc.inflight.Add(1)
	go func() {
		defer wc.inflight.Done()
		ctx := context.Background()
		if deadlineMS > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(deadlineMS)*time.Millisecond)
			defer cancel()
		}
		resp, err := ws.srv.submitCollective(ctx, root, dests, multicast)
		var b []byte
		switch {
		case err != nil:
			b = appendRefusal(b, id, err)
		case resp.Err != nil:
			b = wire.AppendError(b, id, wire.CodeBadRequest, resp.Err.Error())
		default:
			res := collectiveWireResult(resp)
			b = wire.AppendCollectiveResult(b, id, &res)
		}
		_ = wc.out.flush(b, 0)
	}()
}

// collectiveWireResult flattens a served collective onto the binary
// frame, clamping hop counts into the record's i16.
func collectiveWireResult(resp *CollectiveResponse) wire.CollectiveResult {
	rep := resp.Report
	res := wire.CollectiveResult{
		Root:      rep.Root,
		Origin:    rep.Origin,
		Delivered: uint32(rep.Delivered),
		Degraded:  uint32(rep.Degraded),
		Unreached: uint32(rep.Unreached),
		Epoch:     resp.Epoch,
		Dests:     make([]wire.DestRecord, len(rep.Dests)),
	}
	if rep.ReRooted {
		res.Flags |= wire.CollectiveFlagReRooted
	}
	if resp.Degraded {
		res.Flags |= wire.CollectiveFlagDegradedEpoch
	}
	for i, st := range rep.Dests {
		hops := st.Hops
		if hops > 32767 {
			hops = 32767
		}
		res.Dests[i] = wire.DestRecord{Dest: st.Dest, Outcome: uint8(st.Outcome), Hops: int16(hops)}
	}
	return res
}

// applyFaults translates a binary mutation batch onto ApplyFaults and
// encodes the verdict. Unknown codes are rejected before any op is
// applied, preserving batch atomicity.
func (ws *WireServer) applyFaults(wbuf []byte, id uint64, ops []wire.FaultOp) []byte {
	batch := make([]FaultOp, len(ops))
	for i, op := range ops {
		switch op.Op {
		case wire.OpInject:
			batch[i].Op = OpInject
		case wire.OpRepair:
			batch[i].Op = OpRepair
		case wire.OpClear:
			batch[i].Op = OpClear
		default:
			return wire.AppendError(wbuf, id, wire.CodeBadRequest, "wire: unknown fault op")
		}
		switch op.Kind {
		case wire.KindNode:
			batch[i].Kind = KindNode
		case wire.KindLink:
			batch[i].Kind = KindLink
		default:
			return wire.AppendError(wbuf, id, wire.CodeBadRequest, "wire: unknown fault kind")
		}
		batch[i].Node = gc.NodeID(op.Node)
		batch[i].Dim = uint(op.Dim)
	}
	epoch, faults, err := ws.srv.ApplyFaults(batch)
	if err != nil {
		code := wire.CodeBadRequest
		if errors.Is(err, ErrJournal) {
			// A journal-append refusal is the server's failure, not the
			// client's: CodeInternal, and the stream stays in sync — the
			// error frame is a complete, correlated reply.
			code = wire.CodeInternal
		}
		return wire.AppendError(wbuf, id, code, err.Error())
	}
	return wire.AppendFaultsResult(wbuf, id, wire.FaultsResult{
		Epoch:   epoch,
		Faults:  uint32(faults),
		Applied: uint32(len(ops)),
	})
}

// maxSyncBatches bounds one epoch-sync response's batch suffix; a
// requester further behind pulls again from its new frontier
// (SyncFlagMore).
const maxSyncBatches = 256

// epochSync answers a peer's anti-entropy pull. A requester at or
// ahead of our frontier gets an empty response (its next pull goes the
// other way); a requester behind gets the journal suffix after its
// epoch, or a full snapshot when it asked for one, when its epoch
// equals ours with a different fingerprint (divergent histories — a
// suffix cannot reconcile them), or when the journal cannot serve the
// horizon (no journal, compacted away, still replaying).
func (ws *WireServer) epochSync(wbuf []byte, id uint64, req wire.EpochSyncReq) []byte {
	epoch, fp := ws.srv.Frontier()
	resp := wire.EpochSyncResp{Epoch: epoch, FP: fp}
	if fault.CompareFrontier(req.Epoch, req.FP, epoch, fp) >= 0 {
		return wire.AppendEpochSyncResp(wbuf, id, &resp)
	}
	conflict := req.Epoch == epoch && req.FP != fp
	if req.Flags&wire.SyncFlagWantSnapshot == 0 && !conflict {
		if batches, ok := ws.srv.ReadJournalSince(req.Epoch); ok {
			if len(batches) > maxSyncBatches {
				batches = batches[:maxSyncBatches]
				resp.Flags |= wire.SyncFlagMore
			}
			resp.Batches = make([]wire.SyncBatch, len(batches))
			for i := range batches {
				resp.Batches[i] = wire.SyncBatch{
					Epoch:  batches[i].Epoch,
					FP:     batches[i].FP,
					Events: WireSyncEvents(batches[i].Events),
				}
			}
			return wire.AppendEpochSyncResp(wbuf, id, &resp)
		}
	}
	sepoch, sfp, events := ws.srv.SnapshotEvents()
	resp.Epoch, resp.FP = sepoch, sfp
	resp.Flags |= wire.SyncFlagSnapshot
	resp.Batches = []wire.SyncBatch{{Epoch: sepoch, FP: sfp, Events: WireSyncEvents(events)}}
	return wire.AppendEpochSyncResp(wbuf, id, &resp)
}

// writeCombiner is a WireServer connection's outbound queue, shared by
// its reader and its collective goroutines, each of which flushes its
// own frames. Whoever flushes while no write is in progress becomes
// the writer and loops until the queue is empty; a flush that finds a
// write in progress appends its frames to the queue under a short
// mutex, and they leave in that writer's next write. The mutex is
// never held across a syscall.
type writeCombiner struct {
	c net.Conn

	mu      sync.Mutex
	drained sync.Cond    // broadcast when a writer takes the queue or stops
	queued  []byte       // frames waiting for the next write
	spare   []byte       // the buffer the writer in progress hands back
	writing bool         // someone is flushing queued on everyone's behalf
	err     error        // the first write error; later frames are dropped
	backlog atomic.Int64 // len(queued), for the reader's lock-free bound check
}

func newWriteCombiner(c net.Conn) *writeCombiner {
	w := &writeCombiner{c: c}
	w.drained.L = &w.mu
	return w
}

// queuedBytes reports how many bytes wait behind the write in progress.
func (w *writeCombiner) queuedBytes() int { return int(w.backlog.Load()) }

// flush writes own (which may be empty) and everything queued, unless a
// write is already in progress: then own is copied onto the queue, and
// the writer in progress carries it. own is the caller's again on
// return. With limit > 0, a caller that would leave more than limit
// bytes queued behind a write in progress first waits for that write:
// the producer that must not outrun its socket. flush returns the
// connection's first write error.
func (w *writeCombiner) flush(own []byte, limit int) error {
	w.mu.Lock()
	for limit > 0 && w.writing && w.err == nil && len(w.queued)+len(own) > limit {
		w.drained.Wait()
	}
	if w.err != nil || w.writing {
		if w.err == nil {
			w.queued = append(w.queued, own...)
			w.backlog.Store(int64(len(w.queued)))
		}
		err := w.err
		w.mu.Unlock()
		return err
	}
	w.writing = true
	buf, taken := own, false
	for {
		if len(buf) == 0 {
			if len(w.queued) == 0 {
				break
			}
			buf, taken = w.queued, true
			w.queued = w.spare[:0]
			w.backlog.Store(0)
			w.drained.Broadcast()
		}
		w.mu.Unlock()
		_, err := w.c.Write(buf)
		w.mu.Lock()
		if taken {
			w.spare = buf[:0]
		}
		buf, taken = nil, false
		if err != nil {
			w.err = err
			w.queued = w.queued[:0]
			w.backlog.Store(0)
			break
		}
	}
	w.writing = false
	w.drained.Broadcast()
	err := w.err
	w.mu.Unlock()
	return err
}
