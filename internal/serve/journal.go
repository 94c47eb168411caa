package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"gaussiancube/internal/journal"
)

// ErrJournal wraps every journal-related failure ApplyFaults can
// return: a replay that failed at startup, or an append the journal
// refused (sticky I/O failure). The mutation was NOT applied — the
// durable-before-ack contract means an unjournaled epoch never
// becomes visible. The HTTP layer maps it to 500, the wire layer to
// CodeInternal.
var ErrJournal = errors.New("serve: journal")

// JournalConfig wires a durable fault journal (internal/journal) into
// a Server via Config.Journal.
type JournalConfig struct {
	// Dir is the journal directory. Required.
	Dir string
	// Sync is the group-commit window: 0 fsyncs every mutation,
	// a positive duration amortizes fsyncs across the window
	// (mutations still block until durable).
	Sync time.Duration
	// SnapshotEvery compacts the journal (checkpoint + segment
	// truncation) after this many committed batches (0 = never).
	SnapshotEvery uint64
	// FS overrides the storage backend — the crash-injection tests
	// plant a journal.FailpointFS here. nil means the real filesystem.
	FS journal.FS
}

// Journal states surfaced by /healthz and /metrics.
const (
	jstateOff     = int32(iota) // no journal configured
	jstateReplay                // startup replay still running
	jstateOK                    // durable and caught up
	jstateLagging               // durable but commits are queued unsynced
	jstateFailed                // replay failed or writer went sticky
)

// replayDegradedReason marks responses served while the journal is
// still replaying: the fault state in force is the seed, not yet the
// reconstructed history, so delivery is honest but degraded.
const replayDegradedReason = "journal replay in progress"

// jstate returns the current journal state code (lagging computed
// live from the queue gauge).
func (s *Server) journalState() int32 {
	st := s.jphase.Load()
	if st == jstateOK {
		if s.jnl.Err() != nil {
			return jstateFailed
		}
		if s.jnl.LagEvents() > 0 {
			return jstateLagging
		}
	}
	return st
}

// Replaying reports whether the startup journal replay is still
// running — the window in which responses are degraded-marked.
func (s *Server) Replaying() bool { return s.jphase.Load() == jstateReplay }

// WaitJournal blocks until the startup replay completes (or ctx
// expires), returning the replay error if it failed. A server without
// a journal returns immediately.
func (s *Server) WaitJournal(ctx context.Context) error {
	if s.cfg.Journal == nil {
		return nil
	}
	select {
	case <-s.jready:
		return s.jerr
	case <-ctx.Done():
		return ctx.Err()
	}
}

// JournalSnapshot is the journal slice of /metrics and /healthz.
type JournalSnapshot struct {
	State              string `json:"state"` // replaying | ok | lagging | failed
	LastCommittedEpoch uint64 `json:"last_committed_epoch"`
	Appends            int64  `json:"journal_appends"`
	Fsyncs             int64  `json:"journal_fsyncs"`
	LagEvents          int64  `json:"journal_lag_events"`
	Checkpoints        int64  `json:"journal_checkpoints"`
	Error              string `json:"error,omitempty"`
}

// JournalStatus snapshots the journal's health, or nil when no
// journal is configured.
func (s *Server) JournalStatus() *JournalSnapshot {
	if s.cfg.Journal == nil {
		return nil
	}
	js := &JournalSnapshot{}
	switch s.journalState() {
	case jstateReplay:
		js.State = "replaying"
	case jstateOK:
		js.State = "ok"
	case jstateLagging:
		js.State = "lagging"
	default:
		js.State = "failed"
	}
	if s.jphase.Load() != jstateReplay && s.jnl != nil {
		js.LastCommittedEpoch = s.jnl.LastDurableEpoch()
		js.Appends = s.jnl.Appends()
		js.Fsyncs = s.jnl.Fsyncs()
		js.LagEvents = s.jnl.LagEvents()
		js.Checkpoints = s.jnl.Checkpoints()
		if err := s.jnl.Err(); err != nil {
			js.Error = err.Error()
		}
	} else if s.jerr != nil {
		js.Error = s.jerr.Error()
	}
	return js
}

// startJournal launches the background open-and-replay. The server is
// already serving its seed state (degraded-marked); once replay
// lands, one atomic swap installs the reconstructed epoch,
// fingerprint and fault set — before any mutation can run, because
// ApplyFaults blocks on jready.
func (s *Server) startJournal() {
	s.jphase.Store(jstateReplay)
	s.jready = make(chan struct{})
	go func() {
		defer close(s.jready)
		jc := s.cfg.Journal
		opts := journal.Options{FS: jc.FS, SyncInterval: jc.Sync, SnapshotEvery: jc.SnapshotEvery}
		jnl, st, err := journal.Open(s.cube, jc.Dir, opts)
		if err != nil {
			// Both sentinels stay unwrappable: ErrJournal for the API
			// mapping, the inner *CorruptError for operators locating
			// the damaged segment/offset.
			s.jerr = fmt.Errorf("%w: open: %w", ErrJournal, err)
			s.jphase.Store(jstateFailed)
			return
		}
		s.jnl = jnl
		if err := s.finishReplay(st); err != nil {
			s.jerr = err
			s.jphase.Store(jstateFailed)
			return
		}
		s.jphase.Store(jstateOK)
	}()
}

// finishReplay reconciles the replayed journal state with the running
// server. A journal with history wins outright — its exact epoch,
// fingerprint and fault set are installed over the seed in one swap.
// An empty journal instead adopts the seed: the seed faults are
// committed as the epoch-0 bootstrap batch so a later replay starts
// from the same floor.
func (s *Server) finishReplay(st *journal.State) error {
	s.faultsMu.Lock()
	defer s.faultsMu.Unlock()
	cur := s.state.Load()
	if st.Batches == 0 && st.Epoch == 0 {
		if cur.faults.Count() == 0 {
			return nil // empty journal, empty seed: nothing to reconcile
		}
		events := journal.DiffEvents(st.Set, cur.faults, int(time.Now().Unix()))
		b := journal.Batch{Epoch: 0, FP: cur.fp, Events: events}
		if err := s.jnl.Commit(b); err != nil {
			return fmt.Errorf("%w: bootstrap: %v", ErrJournal, err)
		}
		return nil
	}
	es := s.buildEpoch(st.Epoch, st.Set)
	s.epoch.Store(st.Epoch)
	s.state.Store(es)
	s.swapShards(es)
	return nil
}

// journalCommit makes one epoch step durable before it becomes
// visible — called by ApplyFaults under faultsMu with the not-yet-
// published next state. Any failure aborts the mutation. The caller
// has already waited out the startup replay (ApplyFaults blocks on
// jready before taking faultsMu, since finishReplay needs that lock).
func (s *Server) journalCommit(b *journal.Batch) error {
	if s.cfg.Journal == nil {
		return nil
	}
	if s.jerr != nil {
		return s.jerr
	}
	if err := s.jnl.Commit(*b); err != nil {
		return fmt.Errorf("%w: %v", ErrJournal, err)
	}
	return nil
}

// closeJournal seals the journal at shutdown, after the replay
// goroutine has finished with it.
func (s *Server) closeJournal() {
	if s.cfg.Journal == nil {
		return
	}
	<-s.jready
	if s.jnl != nil {
		_ = s.jnl.Close()
	}
}
