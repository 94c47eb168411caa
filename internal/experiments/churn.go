package experiments

import (
	"fmt"
	"math/rand"
	"runtime"

	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/simnet"
)

// Churn is the dynamic-fault extension experiment: networks where
// components fail AND heal while traffic is in flight. It sweeps churn
// intensity (mtbfs: mean cycles between injections, smaller is harsher;
// mttr is the mean fault lifetime) and plots, per modulus, the delivery
// rate of static source routing against the per-hop adaptive engine
// over identical traffic and fault schedules — the gap is the value of
// local fault discovery plus transient wait-out. Each point runs trials
// replicates over a horizon-cycle injection and generation window.
func Churn(n uint, mtbfs []float64, mttr float64, horizon, trials int, seed int64) ([]Figure, error) {
	return churn(n, mtbfs, mttr, horizon, trials, seed, runtime.GOMAXPROCS(0))
}

// churn is Churn with its trials spread over the given number of
// workers; the figures do not depend on it.
func churn(n uint, mtbfs []float64, mttr float64, horizon, trials int, seed int64, workers int) ([]Figure, error) {
	if horizon <= 0 || trials <= 0 {
		return nil, fmt.Errorf("experiments: churn horizon and trials must be positive")
	}
	var out []Figure
	for _, alpha := range []uint{0, 1, 2} {
		cube := gc.New(n, alpha)
		static := Series{Name: "static source routing"}
		adaptive := Series{Name: "adaptive per-hop"}
		for pi, mtbf := range mtbfs {
			runs := make([]churnTrial, trials)
			forEachParallel(trials, workers, func(trial int) {
				runs[trial] = runChurnTrial(cube, mtbf, mttr, horizon, seed+int64(pi)*1_000_003+int64(trial))
			})
			generated, st, ad := 0, 0, 0
			for _, r := range runs {
				if r.err != nil {
					return nil, r.err
				}
				generated += r.generated
				st += r.static
				ad += r.adaptive
			}
			static.Points = append(static.Points, Point{X: mtbf, Y: fraction(st, generated)})
			adaptive.Points = append(adaptive.Points, Point{X: mtbf, Y: fraction(ad, generated)})
		}
		out = append(out, Figure{
			ID:     fmt.Sprintf("churn-M%d", 1<<alpha),
			Title:  fmt.Sprintf("Delivery under churn, GC(%d, %d) (MTTR %v)", n, 1<<alpha, mttr),
			XLabel: "MTBF (cycles between faults)",
			YLabel: "delivery rate",
			Series: []Series{static, adaptive},
		})
	}
	return out, nil
}

// churnTrial is one trial's tally: packets generated, and delivered by
// the static and by the adaptive run.
type churnTrial struct {
	generated, static, adaptive int
	err                         error
}

// runChurnTrial derives one deterministic fault schedule from seed and
// runs static (plan at source, cached) and adaptive routing over it.
// The same seed drives both engines, so the offered traffic is
// identical.
func runChurnTrial(cube *gc.Cube, mtbf, mttr float64, horizon int, seed int64) churnTrial {
	events := fault.ChurnSchedule(rand.New(rand.NewSource(seed)), cube, fault.ChurnConfig{
		MTBF: mtbf, MTTR: mttr, Horizon: horizon,
		LinkFraction: 0.4,
		MaxActive:    int(fault.TolerableBound(cube.N(), cube.Alpha())),
	})
	base := simnet.Config{
		N: cube.N(), Alpha: cube.Alpha(),
		Arrival: 0.2, GenCycles: horizon,
		Seed: seed, Dynamic: fault.NewDynamic(cube, events),
	}
	staticCfg := base
	staticCfg.CacheRoutes = true
	st, err := simnet.Run(staticCfg)
	if err != nil {
		return churnTrial{err: err}
	}
	adaptiveCfg := base
	adaptiveCfg.Adaptive = true
	ad, err := simnet.Run(adaptiveCfg)
	if err != nil {
		return churnTrial{err: err}
	}
	return churnTrial{generated: st.Generated, static: st.Delivered, adaptive: ad.Delivered}
}
