package simnet

import (
	"math/rand"
	"testing"

	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
)

func BenchmarkRunEager(b *testing.B) {
	cfg := Config{N: 10, Alpha: 1, Arrival: 0.01, GenCycles: 40, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunSweepPoint runs one Figure 7/8 sweep point's pair on
// GC(14, 2): a Bernoulli trace at the sweep's load (arrival 0.01 per
// node per cycle over 60 cycles) that avoids one node, simulated
// fault-free and with that node faulty. packets/s is delivered packets
// per second of wall time over both runs.
func BenchmarkRunSweepPoint(b *testing.B) {
	cube := gc.New(14, 1)
	rng := rand.New(rand.NewSource(7919))
	bad := gc.NodeID(rng.Intn(cube.Nodes()))
	var trace []Packet
	for t := 0; t < 60; t++ {
		for v := 0; v < cube.Nodes(); v++ {
			if rng.Float64() >= 0.01 || gc.NodeID(v) == bad {
				continue
			}
			dst := bad
			for dst == bad || dst == gc.NodeID(v) {
				dst = gc.NodeID(rng.Intn(cube.Nodes()))
			}
			trace = append(trace, Packet{Src: gc.NodeID(v), Dst: dst, Time: t})
		}
	}
	faults := fault.NewSet(cube)
	faults.AddNode(bad)
	pair := []Config{
		{N: 14, Alpha: 1, Arrival: 0.01, GenCycles: 60, Trace: trace},
		{N: 14, Alpha: 1, Arrival: 0.01, GenCycles: 60, Trace: trace, Faults: faults},
	}
	delivered := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range pair {
			st, err := Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			delivered += st.Delivered
		}
	}
	b.ReportMetric(float64(delivered)/b.Elapsed().Seconds(), "packets/s")
}

func BenchmarkRunStepped(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var trace []Packet
	for i := 0; i < 300; i++ {
		s := gc.NodeID(rng.Intn(1 << 8))
		d := gc.NodeID(rng.Intn(1 << 8))
		if s != d {
			trace = append(trace, Packet{Src: s, Dst: d, Time: i / 8})
		}
	}
	cfg := SteppedConfig{
		N: 8, Alpha: 1, Trace: trace, BufferSlots: 4, VCs: 2,
		Policy: func(hop int, _ []gc.NodeID) uint8 { return uint8(hop % 2) },
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunStepped(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunWormhole(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	var trace []Packet
	for i := 0; i < 200; i++ {
		s := gc.NodeID(rng.Intn(1 << 8))
		d := gc.NodeID(rng.Intn(1 << 8))
		if s != d {
			trace = append(trace, Packet{Src: s, Dst: d, Time: i / 4})
		}
	}
	cfg := WormholeConfig{
		N: 8, Alpha: 1, Trace: trace,
		FlitsPerPacket: 4, BufferFlits: 2, VCs: 2,
		Policy: func(hop int, _ []gc.NodeID) uint8 { return uint8(hop % 2) },
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunWormhole(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
