package serve

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gaussiancube/internal/wire"
)

// WireMux is a gcwire connection shared by many concurrent callers:
// the cluster's forwarding hop (DESIGN.md §13). Where a WireClient
// holds its mutex across a whole round trip, a WireMux keeps any number
// of requests in flight on one connection.
//
//   - Write combining: a caller appends its request frame to the
//     connection's writeCombiner. If no write is in progress it becomes
//     the writer and flushes the queue; otherwise the writer in
//     progress picks its frame up on its next pass, so a burst of calls
//     costs one syscall.
//   - Id demux: one reader goroutine per connection matches each reply
//     to its call by request id and decodes it into storage the call
//     owns.
//   - Deadline rule: a call waits for its reply until ctx is done or
//     opts.CallTimeout passes, whichever comes first. A caller that
//     gives up removes its id, and a late reply for that id is read
//     and dropped.
//   - Failure rule: a torn connection (read or write error, malformed
//     reply) fails every pending call with ErrConnClosed, and the next
//     call redials through opts (Dial override, retry budget, backoff).
//
// It carries RouteReq frames only: forwarding is unicast, and a
// collective is planned on the member that receives it. The zero value
// is not usable; build one with NewWireMux.
type WireMux struct {
	addr string
	opts WireDialOptions

	cur     atomic.Pointer[muxConn]
	mu      sync.Mutex // serializes dials and guards closed
	closed  bool
	readers sync.WaitGroup // one per dialed connection, until it fails
}

// NewWireMux builds a multiplexed connection to addr without dialing:
// the first call connects.
func NewWireMux(addr string, opts WireDialOptions) *WireMux {
	opts.fill()
	return &WireMux{addr: addr, opts: opts}
}

// Close tears the connection down, failing its pending calls, and
// waits for every reader goroutine to exit. Every later call fails
// with ErrConnClosed.
func (m *WireMux) Close() error {
	m.mu.Lock()
	m.closed = true
	mc := m.cur.Swap(nil)
	m.mu.Unlock()
	if mc != nil {
		mc.tear(fmt.Errorf("%w: client closed", ErrConnClosed))
	}
	m.readers.Wait()
	return nil
}

// Route sends one route request and fills out with the reply, which
// the caller then owns outright: out's slices are never reused by a
// later call. A server error frame lands in out.ErrCode/ErrMsg; the
// returned error reports a torn connection (ErrConnClosed), ctx's
// error, or a CallTimeout expiry (wrapping context.DeadlineExceeded).
func (m *WireMux) Route(ctx context.Context, req wire.RouteReq, out *WireRoute) error {
	call := getMuxCall()
	call.req = req
	err := m.roundTrip(ctx, call)
	if err == nil {
		*out = call.route
	}
	call.route = WireRoute{}
	putMuxCall(call)
	return err
}

// roundTrip sends call's frame and waits for its reply under the
// deadline rule.
func (m *WireMux) roundTrip(ctx context.Context, call *muxCall) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	mc, err := m.conn()
	if err != nil {
		return err
	}
	id, err := mc.send(call)
	if err != nil {
		return err
	}
	var expired <-chan time.Time
	if m.opts.CallTimeout > 0 {
		if call.timer == nil {
			call.timer = time.NewTimer(m.opts.CallTimeout)
		} else {
			call.timer.Reset(m.opts.CallTimeout)
		}
		expired = call.timer.C
		defer call.stopTimer()
	}
	select {
	case <-call.ready:
		return call.err
	case <-ctx.Done():
		err = ctx.Err()
	case <-expired:
		err = fmt.Errorf("gcwire: no reply within %v: %w", m.opts.CallTimeout, context.DeadlineExceeded)
	}
	if mc.abandon(id) {
		return err
	}
	// The reader (or a tear) claimed the call before we could withdraw
	// it; its answer is being written into the call right now.
	<-call.ready
	return call.err
}

// conn returns the live connection, dialing one when there is none or
// the last one was torn.
func (m *WireMux) conn() (*muxConn, error) {
	if mc := m.cur.Load(); mc != nil && !mc.dead.Load() {
		return mc, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("%w: client closed", ErrConnClosed)
	}
	if mc := m.cur.Load(); mc != nil && !mc.dead.Load() {
		return mc, nil // another caller redialed while we waited
	}
	c, err := m.opts.dial(m.addr)
	if err != nil {
		return nil, err
	}
	mc := &muxConn{c: c, out: newWriteCombiner(c, m.opts.CallTimeout), pending: make(map[uint64]*muxCall)}
	m.cur.Store(mc)
	m.readers.Add(1)
	go func() {
		defer m.readers.Done()
		mc.read()
	}()
	return mc, nil
}

// muxConn is one dialed connection of a WireMux with its reader.
type muxConn struct {
	c    net.Conn
	dead atomic.Bool // set first thing in tear
	out  *writeCombiner

	mu      sync.Mutex
	err     error // why the connection was torn; nil while live
	nextID  uint64
	pending map[uint64]*muxCall
}

// send registers call under a fresh id and gets its frame written,
// combined with any frames queued beside it. Once registered, the call
// is answered through call.ready even if the write fails.
func (mc *muxConn) send(call *muxCall) (uint64, error) {
	mc.mu.Lock()
	if mc.err != nil {
		err := mc.err
		mc.mu.Unlock()
		return 0, err
	}
	id := mc.nextID
	mc.nextID++
	mc.pending[id] = call
	mc.mu.Unlock()
	b := mc.out.lock()
	b = wire.AppendRouteReq(b, id, call.req)
	mc.out.unlock(b)
	if err := mc.out.flush(nil, 0); err != nil {
		mc.tear(fmt.Errorf("%w: %v", ErrConnClosed, err))
	}
	return id, nil
}

// abandon withdraws a call whose caller gave up. It reports false when
// the reader or a tear already claimed the call, which will then be
// signalled.
func (mc *muxConn) abandon(id uint64) bool {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if _, ok := mc.pending[id]; !ok {
		return false
	}
	delete(mc.pending, id)
	return true
}

// claim removes and returns the call waiting on id, or nil when its
// caller has given up.
func (mc *muxConn) claim(id uint64) *muxCall {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	call := mc.pending[id]
	delete(mc.pending, id)
	return call
}

// tear closes the connection and fails every pending call with err.
// Only the first tear's error is kept.
func (mc *muxConn) tear(err error) {
	mc.dead.Store(true)
	mc.mu.Lock()
	if mc.err == nil {
		mc.err = err
	}
	pending := mc.pending
	mc.pending = nil
	mc.mu.Unlock()
	_ = mc.c.Close()
	for _, call := range pending {
		call.err = err
		call.ready <- struct{}{}
	}
}

// read is the connection's reader goroutine: it hands each reply to
// the call waiting on its id until the connection fails.
func (mc *muxConn) read() {
	br := bufio.NewReaderSize(mc.c, 16<<10)
	var hdr [wire.HeaderSize]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			mc.tear(fmt.Errorf("%w: %v", ErrConnClosed, err))
			return
		}
		h, err := wire.ParseHeader(hdr[:])
		if err != nil {
			mc.tear(fmt.Errorf("%w: %v", ErrConnClosed, err))
			return
		}
		if cap(payload) < int(h.Len) {
			payload = make([]byte, h.Len)
		}
		p := payload[:h.Len]
		if _, err := io.ReadFull(br, p); err != nil {
			mc.tear(fmt.Errorf("%w: %v", ErrConnClosed, err))
			return
		}
		call := mc.claim(h.ID)
		if call == nil {
			continue // a late reply for a call whose caller gave up
		}
		if err := decodeRouteReply(h.Type, p, &call.route); err != nil {
			err = fmt.Errorf("%w: %v", ErrConnClosed, err)
			call.err = err
			call.ready <- struct{}{}
			mc.tear(err)
			return
		}
		call.ready <- struct{}{}
	}
}

// muxCall is one in-flight request and the storage its reply decodes
// into. Whoever removes a call from pending (the reader or a tear)
// signals ready exactly once; a caller that removes its own call gets
// no signal. Either way the caller holds the call alone again before
// it returns it to the pool.
type muxCall struct {
	ready chan struct{} // capacity 1
	timer *time.Timer   // the CallTimeout timer, reused across calls

	req   wire.RouteReq
	route WireRoute
	err   error
}

var muxCalls = sync.Pool{New: func() any { return &muxCall{ready: make(chan struct{}, 1)} }}

func getMuxCall() *muxCall { return muxCalls.Get().(*muxCall) }

func putMuxCall(c *muxCall) {
	c.err = nil
	muxCalls.Put(c)
}

// stopTimer stops the call's timer and drains a tick it may have left,
// so the next Reset starts clean.
func (c *muxCall) stopTimer() {
	if !c.timer.Stop() {
		select {
		case <-c.timer.C:
		default:
		}
	}
}

// writeCombiner is a connection's outbound queue, shared by both ends
// of gcwire: a WireMux's forwarding callers, and a WireServer
// connection's reader, shard workers and writer goroutine. Any number
// of goroutines append frames under a short mutex; whoever flushes
// while no write is in progress becomes the writer and loops until the
// queue is empty, so every frame appended during a write leaves in the
// next one. The mutex is never held across a syscall, so appending
// never waits on the socket.
type writeCombiner struct {
	c       net.Conn
	timeout time.Duration // per-write deadline; 0 for none

	mu      sync.Mutex
	drained sync.Cond    // broadcast when a writer takes the queue or stops
	queued  []byte       // frames waiting for the next write
	spare   []byte       // the buffer the writer in progress hands back
	writing bool         // someone is flushing queued on everyone's behalf
	err     error        // the first write error; later frames are dropped
	backlog atomic.Int64 // len(queued), for the reader's lock-free bound check
}

func newWriteCombiner(c net.Conn, timeout time.Duration) *writeCombiner {
	w := &writeCombiner{c: c, timeout: timeout}
	w.drained.L = &w.mu
	return w
}

// lock locks the queue and returns it for the caller to append frames
// to; unlock stores the grown queue back and unlocks.
func (w *writeCombiner) lock() []byte {
	w.mu.Lock()
	return w.queued
}

func (w *writeCombiner) unlock(b []byte) {
	if w.err != nil {
		b = b[:0] // the connection is dead: nobody will read these
	}
	w.queued = b
	w.backlog.Store(int64(len(b)))
	w.mu.Unlock()
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
		var err error
		if w.timeout > 0 {
			err = w.c.SetWriteDeadline(time.Now().Add(w.timeout))
		}
		if err == nil {
			_, err = w.c.Write(buf)
		}
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
