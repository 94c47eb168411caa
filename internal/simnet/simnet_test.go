package simnet

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/workload"
)

// TestRunReusesLedger: Run takes its link ledger from a pool that the
// previous run returned it to. GC(10), then GC(8) (which reuses a prefix
// of GC(10)'s slots and leaves the rest dirty), then GC(10) again must
// each give Stats bit-identical, LinkLoad and the hottest links
// included, to a run that allocated a never-used ledger.
func TestRunReusesLedger(t *testing.T) {
	cfgs := []Config{
		{N: 10, Alpha: 2, Arrival: 0.02, GenCycles: 40, Seed: 3},
		{N: 8, Alpha: 1, Arrival: 0.05, GenCycles: 40, Seed: 4},
		{N: 10, Alpha: 2, Arrival: 0.02, GenCycles: 40, Seed: 5},
	}
	run := func(cfg Config) *Stats {
		st, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	fresh := make([]*Stats, len(cfgs))
	for i, cfg := range cfgs {
		ledgers = sync.Pool{} // empty: the run allocates its ledger
		fresh[i] = run(cfg)
	}
	ledgers = sync.Pool{}
	for i, cfg := range cfgs {
		if got := run(cfg); !reflect.DeepEqual(got, fresh[i]) {
			t.Errorf("GC(%d,2^%d) on a reused ledger:\n got  %+v\n want %+v", cfg.N, cfg.Alpha, got, fresh[i])
		}
	}
}

func baseConfig() Config {
	return Config{
		N:         7,
		Alpha:     1,
		Arrival:   0.02,
		GenCycles: 100,
		Seed:      1,
	}
}

func TestRunBasic(t *testing.T) {
	stats, err := Run(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Generated == 0 {
		t.Fatal("no packets generated")
	}
	if stats.Delivered != stats.Generated {
		t.Errorf("delivered %d of %d in a fault-free network",
			stats.Delivered, stats.Generated)
	}
	if stats.Undeliverable != 0 || stats.FallbackRoutes != 0 {
		t.Errorf("fault-free run had %d undeliverable, %d fallbacks",
			stats.Undeliverable, stats.FallbackRoutes)
	}
	if stats.AvgLatency() <= 0 {
		t.Errorf("avg latency = %v", stats.AvgLatency())
	}
	if stats.Throughput() <= 0 || stats.Makespan <= 0 {
		t.Errorf("throughput = %v makespan = %d", stats.Throughput(), stats.Makespan)
	}
	if stats.Hops.Mean() <= 0 {
		t.Errorf("avg hops = %v", stats.Hops.Mean())
	}
	if stats.Efficiency() <= 0 {
		t.Errorf("efficiency = %v", stats.Efficiency())
	}
}

// TestRunDeterministic: identical configurations must give identical
// Stats, every field and every float bit included (LinkLoad's Welford
// fold too), on the eager engine, the static timeline and the adaptive
// stepper.
func TestRunDeterministic(t *testing.T) {
	cube := gc.New(10, 1)
	faults := func() *fault.Set {
		fs := fault.NewSet(cube)
		for _, v := range []gc.NodeID{3, 77, 400, 901} {
			fs.AddNode(v)
		}
		return fs
	}
	configs := map[string]func() Config{
		"eager": func() Config {
			return Config{N: 10, Alpha: 1, Arrival: 0.01, GenCycles: 40, Seed: 1}
		},
		"timeline": func() Config {
			return Config{N: 10, Alpha: 1, Arrival: 0.01, GenCycles: 40, Seed: 1, Faults: faults(), FaultAtCycle: 15}
		},
		"adaptive": func() Config {
			return Config{N: 10, Alpha: 1, Arrival: 0.01, GenCycles: 40, Seed: 1, Faults: faults(), Adaptive: true}
		},
	}
	for name, mk := range configs {
		t.Run(name, func(t *testing.T) {
			a, err := Run(mk())
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(mk())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("same configuration, different stats:\n %+v\n %+v", a, b)
			}
			c := mk()
			c.Seed = 2
			cStats, err := Run(c)
			if err != nil {
				t.Fatal(err)
			}
			if cStats.Generated == a.Generated && cStats.AvgLatency() == a.AvgLatency() {
				t.Error("different seeds should give different traffic")
			}
		})
	}
}

func TestRunValidation(t *testing.T) {
	cfg := baseConfig()
	cfg.GenCycles = 0
	if _, err := Run(cfg); err == nil {
		t.Error("GenCycles=0 must fail")
	}
	cfg = baseConfig()
	cfg.Arrival = 0
	if _, err := Run(cfg); err == nil {
		t.Error("Arrival=0 must fail")
	}
	cfg = baseConfig()
	cfg.Arrival = 1.5
	if _, err := Run(cfg); err == nil {
		t.Error("Arrival>1 must fail")
	}
}

func TestLatencyAtLeastHops(t *testing.T) {
	// With unit service and unit link time, latency >= 2 * hops.
	stats, err := Run(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Latency.Mean() < 2*stats.Hops.Mean() {
		t.Errorf("latency %v < 2x hops %v", stats.Latency.Mean(), stats.Hops.Mean())
	}
	if stats.Latency.Min() < 2 {
		t.Errorf("min latency = %v", stats.Latency.Min())
	}
}

func TestMaxPacketsCap(t *testing.T) {
	cfg := baseConfig()
	cfg.MaxPackets = 10
	stats, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Generated != 10 {
		t.Errorf("generated %d, cap was 10", stats.Generated)
	}
}

func TestFaultyNodesExcluded(t *testing.T) {
	cfg := baseConfig()
	cube := gc.New(cfg.N, cfg.Alpha)
	fs := fault.NewSet(cube)
	rng := rand.New(rand.NewSource(9))
	fs.InjectRandomNodes(rng, 4)
	cfg.Faults = fs
	stats, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	// Everything that was routed must be delivered; route failures are
	// possible in principle but must be rare with 4 faults in 128 nodes.
	if stats.Delivered+stats.Undeliverable != stats.Generated {
		t.Error("packet accounting broken")
	}
	if stats.Undeliverable > stats.Generated/10 {
		t.Errorf("undeliverable %d of %d", stats.Undeliverable, stats.Generated)
	}
}

// TestFaultRaisesLatency is the Figure 7 claim in miniature: one faulty
// node must not reduce and typically raises average latency.
func TestFaultShiftsMetrics(t *testing.T) {
	cfg := baseConfig()
	cfg.N = 8
	cfg.GenCycles = 200
	clean, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cube := gc.New(cfg.N, cfg.Alpha)
	fs := fault.NewSet(cube)
	fs.AddNode(3)
	cfg.Faults = fs
	faulty, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With one faulty node out of 256 the shift is small; assert only
	// that the faulty run is not dramatically faster (which would
	// indicate the detours are not being simulated).
	if faulty.AvgLatency() < clean.AvgLatency()*0.9 {
		t.Errorf("faulty latency %v much lower than clean %v",
			faulty.AvgLatency(), clean.AvgLatency())
	}
}

func TestPatternOverride(t *testing.T) {
	cfg := baseConfig()
	cfg.Pattern = workload.BitComplement{Bits: cfg.N}
	stats, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Delivered != stats.Generated {
		t.Error("bit-complement traffic must be fully delivered")
	}
	// Complement pairs in GC(7,2) are far apart: average hops must
	// exceed the uniform average.
	uni, err := Run(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hops.Mean() <= uni.Hops.Mean() {
		t.Errorf("bit-complement hops %v <= uniform %v",
			stats.Hops.Mean(), uni.Hops.Mean())
	}
}

// TestContentionGrowsLatency: heavy load must raise average latency
// through link queueing. Averaged over seeds to kill sampling noise.
func TestContentionGrowsLatency(t *testing.T) {
	avg := func(arrival float64) float64 {
		var total float64
		for seed := int64(1); seed <= 3; seed++ {
			cfg := baseConfig()
			cfg.Arrival = arrival
			cfg.Seed = seed
			stats, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			total += stats.AvgLatency()
		}
		return total / 3
	}
	low, high := avg(0.01), avg(0.6)
	if high <= low {
		t.Errorf("saturated load latency %v <= light load latency %v", high, low)
	}
}
