package gc

import (
	"math/rand"
	"testing"
)

func BenchmarkNeighbors(b *testing.B) {
	c := New(16, 2)
	rng := rand.New(rand.NewSource(1))
	nodes := make([]NodeID, 512)
	for i := range nodes {
		nodes[i] = NodeID(rng.Intn(c.Nodes()))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Neighbors(nodes[i%len(nodes)])
	}
}

func BenchmarkHasLinkDim(b *testing.B) {
	c := New(16, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.HasLinkDim(NodeID(i&0xffff), uint(i%16))
	}
}

func BenchmarkGEECOf(b *testing.B) {
	c := New(16, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.GEECOf(NodeID(i & 0xffff))
	}
}

func BenchmarkComputeStats(b *testing.B) {
	c := New(10, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ComputeStats()
	}
}
