package serve

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"gaussiancube/internal/core"
	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/journal"
)

// churnBatches turns an MTBF/MTTR churn schedule into per-epoch
// FaultOp batches (one batch per distinct event time) until at least
// epochs batches exist.
func churnBatches(t *testing.T, cube *gc.Cube, epochs int, seed int64) [][]FaultOp {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	events := fault.ChurnSchedule(rng, cube, fault.ChurnConfig{
		MTBF:         1.5,
		MTTR:         40,
		Horizon:      epochs * 4,
		LinkFraction: 0.3,
		MaxActive:    24,
	})
	var batches [][]FaultOp
	var cur []FaultOp
	last := -1
	for _, e := range events {
		op := FaultOp{Node: e.Fault.Node, Dim: e.Fault.Dim}
		if e.Op == fault.OpInject {
			op.Op = OpInject
		} else {
			op.Op = OpRepair
		}
		if e.Fault.Kind == fault.KindNode {
			op.Kind = KindNode
		} else {
			op.Kind = KindLink
		}
		if e.Time != last && cur != nil {
			batches = append(batches, cur)
			cur = nil
		}
		last = e.Time
		cur = append(cur, op)
	}
	if cur != nil {
		batches = append(batches, cur)
	}
	if len(batches) < epochs {
		t.Fatalf("churn schedule produced only %d batches, want >= %d", len(batches), epochs)
	}
	return batches[:epochs]
}

// probePairs is the fixed route battery compared between the crashed
// and reference servers.
func probePairs(cube *gc.Cube, n int, seed int64) [][2]gc.NodeID {
	rng := rand.New(rand.NewSource(seed))
	out := make([][2]gc.NodeID, n)
	for i := range out {
		out[i] = [2]gc.NodeID{gc.NodeID(rng.Intn(cube.Nodes())), gc.NodeID(rng.Intn(cube.Nodes()))}
	}
	return out
}

// probeAnswer is one comparable route verdict.
type probeAnswer struct {
	err     bool
	outcome core.Outcome
	path    string
}

func probe(t *testing.T, s *Server, pairs [][2]gc.NodeID) []probeAnswer {
	t.Helper()
	out := make([]probeAnswer, len(pairs))
	for i, p := range pairs {
		resp, err := s.SubmitTree(context.Background(), p[0], p[1], core.TreeAuto)
		if err != nil {
			t.Fatalf("probe SubmitTree(%d,%d): %v", p[0], p[1], err)
		}
		if resp.Err != nil {
			out[i] = probeAnswer{err: true}
			continue
		}
		var b strings.Builder
		for _, v := range resp.Report.Path {
			b.WriteByte(byte(v))
			b.WriteByte(byte(v >> 8))
		}
		out[i] = probeAnswer{outcome: resp.Report.Outcome, path: b.String()}
	}
	return out
}

// TestCrashRecoverySoak is the tentpole acceptance test: a journaling
// server is repeatedly killed mid-churn (FailpointFS crash semantics:
// unsynced bytes die, an arbitrary torn tail may survive), restarted,
// and must replay to exactly the epoch, fingerprint and route answers
// of a reference server that never crashed. Run under -race.
func TestCrashRecoverySoak(t *testing.T) {
	cube := gc.New(8, 2)
	const epochs = 64
	batches := churnBatches(t, cube, epochs, 7)
	pairs := probePairs(cube, 48, 11)

	// Reference: the same churn, no crashes, no journal.
	ref, err := New(Config{Cube: cube, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range batches {
		if _, _, err := ref.ApplyFaults(b); err != nil {
			t.Fatalf("reference ApplyFaults[%d]: %v", i, err)
		}
	}

	// Crashing run: one FailpointFS survives across "process" restarts.
	fs := journal.NewFailpointFS()
	rng := rand.New(rand.NewSource(13))
	applied := 0 // batches known durable (acked)
	restarts := 0
	var srv *Server

	start := func() *Server {
		s, err := New(Config{
			Cube:   cube,
			Shards: 2,
			Journal: &JournalConfig{
				Dir:           "j",
				FS:            fs,
				SnapshotEvery: 24, // force compaction mid-soak
			},
		})
		if err != nil {
			t.Fatalf("restart %d: New: %v", restarts, err)
		}
		if err := s.WaitJournal(context.Background()); err != nil {
			t.Fatalf("restart %d: replay: %v", restarts, err)
		}
		if got, want := s.Epoch(), uint64(applied); got != want {
			t.Fatalf("restart %d: replayed epoch %d, want %d (acked batches)", restarts, got, want)
		}
		return s
	}

	srv = start()
	for applied < epochs {
		// Apply a random stretch, then crash.
		stretch := 1 + rng.Intn(9)
		crashed := false
		for i := 0; i < stretch && applied < epochs; i++ {
			epoch, _, err := srv.ApplyFaults(batches[applied])
			if err != nil {
				if !errors.Is(err, ErrJournal) {
					t.Fatalf("ApplyFaults[%d]: %v", applied, err)
				}
				crashed = true // the kill raced this ack; batch NOT applied
				break
			}
			applied++
			if epoch != uint64(applied) {
				t.Fatalf("acked epoch %d after %d applied batches", epoch, applied)
			}
		}
		if applied >= epochs && !crashed {
			break
		}
		// Race one more mutation against the kill itself — the
		// durable-before-ack window. Whatever the ack says is the truth
		// the replay must reproduce: acked implies fsynced implies
		// replayed; refused implies never visible.
		raceDone := make(chan error, 1)
		raceDone <- nil
		raced := false
		if applied < epochs && !crashed {
			raced = true
			idx := applied
			<-raceDone
			go func() {
				_, _, err := srv.ApplyFaults(batches[idx])
				raceDone <- err
			}()
		}
		// Kill the "process": unsynced bytes vanish, and a torn tail of
		// up to 32 bytes of whatever was pending may survive.
		fs.Kill(rng.Intn(33))
		if err := <-raceDone; raced && err == nil {
			applied++
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = srv.Shutdown(ctx)
		cancel()
		fs.Revive()
		// Half the time, smear a torn fragment of a next record onto the
		// live segment — the shape a crash mid-write leaves on a real
		// disk. Replay must truncate it silently.
		if rng.Intn(2) == 0 {
			smearTornTail(t, fs, rng)
		}
		restarts++
		srv = start()
	}

	if restarts == 0 {
		t.Fatal("soak finished without a single crash/restart")
	}
	t.Logf("soak: %d epochs over %d restarts", applied, restarts)

	// Bit-identical recovery: epoch, fingerprint, fault set, and every
	// probe route answer match the never-crashed reference.
	if got, want := srv.Epoch(), ref.Epoch(); got != want {
		t.Fatalf("final epoch %d, want %d", got, want)
	}
	if got, want := srv.FaultSet().Fingerprint(), ref.FaultSet().Fingerprint(); got != want {
		t.Fatalf("final fingerprint %#x, want %#x", got, want)
	}
	got := probe(t, srv, pairs)
	want := probe(t, ref, pairs)
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("probe %d (%d->%d): crashed server answered %+v, reference %+v",
				i, pairs[i][0], pairs[i][1], got[i], want[i])
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("final shutdown: %v", err)
	}
	_ = ref.Shutdown(ctx)
}

// smearTornTail appends a torn fragment (a record header promising
// more payload than follows) to the live journal segment.
func smearTornTail(t *testing.T, fs *journal.FailpointFS, rng *rand.Rand) {
	t.Helper()
	names, err := fs.List("j")
	if err != nil {
		t.Fatal(err)
	}
	last := ""
	for _, n := range names {
		if strings.HasPrefix(n, "seg-") {
			last = n
		}
	}
	if last == "" {
		return
	}
	f, err := fs.OpenAppend("j/" + last)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Seek(0, 2); err != nil {
		t.Fatal(err)
	}
	frag := make([]byte, 4+rng.Intn(12))
	frag[0] = 64 // length prefix claims a payload the tail doesn't have
	f.Write(frag)
	f.Sync() // durable garbage: survives the next replay's read
}

// TestJournalCorruptionLocatedError pins the other half of the replay
// contract: damage that is NOT a torn tail — here, bit rot in an
// already-synced mid-stream record — must fail startup with an error
// locating the segment and offset, never silently truncate.
func TestJournalCorruptionLocatedError(t *testing.T) {
	cube := gc.New(8, 2)
	fs := journal.NewFailpointFS()
	srv, err := New(Config{Cube: cube, Shards: 1, Journal: &JournalConfig{Dir: "j", FS: fs}})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.WaitJournal(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, _, err := srv.ApplyFaults([]FaultOp{{Op: OpInject, Kind: KindNode, Node: gc.NodeID(10 + i)}}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Corrupt one payload byte of the FIRST record: three valid records
	// follow, so this is unambiguous mid-stream damage.
	names, _ := fs.List("j")
	seg := ""
	for _, n := range names {
		if strings.HasPrefix(n, "seg-") {
			seg = n
			break
		}
	}
	if err := fs.Corrupt("j/"+seg, 24+16+2, 0x40); err != nil {
		t.Fatal(err)
	}

	srv2, err := New(Config{Cube: cube, Shards: 1, Journal: &JournalConfig{Dir: "j", FS: fs}})
	if err != nil {
		t.Fatal(err)
	}
	werr := srv2.WaitJournal(context.Background())
	if werr == nil {
		t.Fatal("corrupted journal replayed cleanly")
	}
	if !errors.Is(werr, ErrJournal) {
		t.Errorf("replay error %v does not wrap ErrJournal", werr)
	}
	var ce *journal.CorruptError
	if !errors.As(werr, &ce) {
		t.Fatalf("replay error %v carries no *CorruptError", werr)
	}
	if ce.Segment != seg || ce.Offset != 24 {
		t.Errorf("corruption located at %s:%d, want %s:24", ce.Segment, ce.Offset, seg)
	}
	// The server still serves (seed state), reports failed health, and
	// refuses mutations.
	if js := srv2.JournalStatus(); js == nil || js.State != "failed" {
		t.Errorf("JournalStatus = %+v, want failed", js)
	}
	if _, _, err := srv2.ApplyFaults([]FaultOp{{Op: OpInject, Kind: KindNode, Node: 1}}); !errors.Is(err, ErrJournal) {
		t.Errorf("ApplyFaults on failed journal = %v, want ErrJournal", err)
	}
	_ = srv2.Shutdown(ctx)
}

// TestServeDegradedDuringReplay gates the journal's segment read open
// so the startup replay stalls, and asserts the documented serving
// behavior of the replay window: /healthz-visible "replaying" state,
// every delivery marked DeliveredDegraded with the replay reason, the
// fast path disabled — then, once the gate lifts, full recovery to
// the replayed epoch with clean verdicts.
func TestServeDegradedDuringReplay(t *testing.T) {
	cube := gc.New(8, 2)
	fs := journal.NewFailpointFS()

	// Seed the journal with history via a non-gated server.
	seedSrv, err := New(Config{Cube: cube, Shards: 1, Journal: &JournalConfig{Dir: "j", FS: fs}})
	if err != nil {
		t.Fatal(err)
	}
	if err := seedSrv.WaitJournal(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := seedSrv.ApplyFaults([]FaultOp{{Op: OpInject, Kind: KindNode, Node: gc.NodeID(40 + i)}}); err != nil {
			t.Fatal(err)
		}
	}
	wantEpoch, wantFP := seedSrv.Epoch(), seedSrv.FaultSet().Fingerprint()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := seedSrv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	gate := make(chan struct{})
	fs.OnOpen(func(name string) {
		if strings.HasPrefix(name, "seg-") {
			<-gate
		}
	})
	srv, err := New(Config{Cube: cube, Shards: 1, Journal: &JournalConfig{Dir: "j", FS: fs}})
	if err != nil {
		t.Fatal(err)
	}
	if !srv.Replaying() {
		t.Fatal("server not in replaying state with the gate held")
	}
	if js := srv.JournalStatus(); js == nil || js.State != "replaying" {
		t.Fatalf("JournalStatus = %+v, want replaying", js)
	}
	if _, ok := srv.FastRouteTree(1, 200, core.TreeAuto); ok {
		t.Error("fast path answered during replay; degraded marking bypassed")
	}
	resp, err := srv.SubmitTree(context.Background(), 1, 200, core.TreeAuto)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err != nil {
		t.Fatalf("probe failed: %v", resp.Err)
	}
	if resp.Report.Outcome != core.OutcomeDeliveredDegraded {
		t.Errorf("replay-window outcome %v, want DeliveredDegraded", resp.Report.Outcome)
	}
	if resp.Report.Reason != replayDegradedReason {
		t.Errorf("replay-window reason %q, want %q", resp.Report.Reason, replayDegradedReason)
	}

	close(gate)
	if err := srv.WaitJournal(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := srv.Epoch(); got != wantEpoch {
		t.Fatalf("post-replay epoch %d, want %d", got, wantEpoch)
	}
	if got := srv.FaultSet().Fingerprint(); got != wantFP {
		t.Fatalf("post-replay fingerprint %#x, want %#x", got, wantFP)
	}
	resp, err = srv.SubmitTree(context.Background(), 1, 200, core.TreeAuto)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Report.Outcome == core.OutcomeDeliveredDegraded && resp.Report.Reason == replayDegradedReason {
		t.Error("response still replay-degraded after replay finished")
	}
	if js := srv.JournalStatus(); js == nil || js.State != "ok" {
		t.Errorf("JournalStatus = %+v, want ok", js)
	}
	_ = srv.Shutdown(ctx)
}

// TestServeReplayCacheHit pins the window the miss step still probes
// the route cache in: while the startup replay runs the fast path
// refuses every request, so a pair cached during the replay is
// answered by serveRoute's own probe, as a cache hit degrade-marked with the replay
// reason, not planned again.
func TestServeReplayCacheHit(t *testing.T) {
	cube := gc.New(8, 2)
	fs := journal.NewFailpointFS()
	seedSrv, err := New(Config{Cube: cube, Shards: 1, Journal: &JournalConfig{Dir: "j", FS: fs}})
	if err != nil {
		t.Fatal(err)
	}
	if err := seedSrv.WaitJournal(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := seedSrv.ApplyFaults([]FaultOp{{Op: OpInject, Kind: KindNode, Node: 40}}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := seedSrv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	gate := make(chan struct{})
	fs.OnOpen(func(name string) {
		if strings.HasPrefix(name, "seg-") {
			<-gate
		}
	})
	srv, err := New(Config{Cube: cube, Shards: 1, Journal: &JournalConfig{Dir: "j", FS: fs}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Shutdown(ctx) }()
	defer close(gate)
	if !srv.Replaying() {
		t.Fatal("server not in replaying state with the gate held")
	}
	first, err := srv.SubmitTree(context.Background(), 1, 200, core.TreeAuto)
	if err != nil || first.Err != nil {
		t.Fatalf("first route: %v %+v", err, first)
	}
	if first.CacheHit {
		t.Fatal("first route of the pair hit the cache")
	}
	second, err := srv.SubmitTree(context.Background(), 1, 200, core.TreeAuto)
	if err != nil || second.Err != nil {
		t.Fatalf("second route: %v %+v", err, second)
	}
	if !second.CacheHit {
		t.Fatal("pair cached during the replay was planned again")
	}
	if second.Report.Outcome != core.OutcomeDeliveredDegraded || second.Report.Reason != replayDegradedReason {
		t.Errorf("replay-window hit: %v %q, want DeliveredDegraded %q", second.Report.Outcome, second.Report.Reason, replayDegradedReason)
	}
	if !slices.Equal(second.Report.Path, first.Report.Path) {
		t.Errorf("cached path %v, planned %v", second.Report.Path, first.Report.Path)
	}
	if m := srv.Metrics(); m.FastPathHits != 0 || m.PerShard[0].CacheHits != 1 {
		t.Errorf("fast-path hits %d, cache hits %d; want 0 and 1", m.FastPathHits, m.PerShard[0].CacheHits)
	}
}
