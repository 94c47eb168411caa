package serve

import (
	"context"
	"testing"
	"time"

	"gaussiancube/internal/gc"
)

// The journal-on serving benchmarks are the read-path-neutrality gate:
// a configured journal only touches the mutation path (durable-before-
// ack) plus one atomic phase load on FastRouteTree, so pipelined routing
// must stay zero-alloc and within noise of the journal-off
// BenchmarkServeWire/BenchmarkServeBatch numbers — in both sync modes.

// BenchmarkServeWireJournalSync: journaling with an fsync per mutation
// (-journal-sync=0). No mutations run during the bench; the journal is
// idle but armed.
func BenchmarkServeWireJournalSync(b *testing.B) {
	runServeWireBench(b, Config{
		Cube: gc.New(10, 3), QueueDepth: 1024, CacheCapacity: 1 << 16,
		Journal: &JournalConfig{Dir: b.TempDir()},
	})
}

// BenchmarkServeWireJournalGroup: journaling with a 2ms group-commit
// window (gcserved's -journal-sync default).
func BenchmarkServeWireJournalGroup(b *testing.B) {
	runServeWireBench(b, Config{
		Cube: gc.New(10, 3), QueueDepth: 1024, CacheCapacity: 1 << 16,
		Journal: &JournalConfig{Dir: b.TempDir(), Sync: 2 * time.Millisecond},
	})
}

// BenchmarkServeBatchJournalGroup: the in-process submit path with the
// group-commit journal armed.
func BenchmarkServeBatchJournalGroup(b *testing.B) {
	runServeBatchBench(b, Config{
		Cube: gc.New(10, 3), QueueDepth: 1024, CacheCapacity: 1 << 16,
		Journal: &JournalConfig{Dir: b.TempDir(), Sync: 2 * time.Millisecond},
	})
}

// BenchmarkApplyFaultsJournal pins the mutation path's durability tax:
// off (no journal), sync0 (one fsync per ApplyFaults ack) and group2ms
// (acks wait out the group window — higher latency for a serial
// mutator, amortized fsyncs under concurrency; see
// BenchmarkJournalCommit for the concurrent shape).
func BenchmarkApplyFaultsJournal(b *testing.B) {
	run := func(b *testing.B, jc *JournalConfig) {
		cfg := Config{Cube: gc.New(8, 2), Shards: 2, Journal: jc}
		s := mustServer(b, cfg)
		if err := s.WaitJournal(context.Background()); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op := OpInject
			if i%2 == 1 {
				op = OpRepair
			}
			if _, _, err := s.ApplyFaults([]FaultOp{{Op: op, Kind: KindNode, Node: 7}}); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "mutations/s")
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("sync0", func(b *testing.B) { run(b, &JournalConfig{Dir: b.TempDir()}) })
	b.Run("group2ms", func(b *testing.B) {
		run(b, &JournalConfig{Dir: b.TempDir(), Sync: 2 * time.Millisecond})
	})
}
