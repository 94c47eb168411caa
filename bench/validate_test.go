package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"gaussiancube/internal/core"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/serve"
	"gaussiancube/internal/wire"
)

// plantedRoute returns a delivered reply for a real route of GC(8,2^2)
// from 3 to 200, planned by the core router.
func plantedRoute(t *testing.T) (*gc.Cube, *serve.WireRoute) {
	t.Helper()
	cube := gc.New(8, 2)
	res, err := core.NewRouter(cube).Route(3, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Path) < 4 {
		t.Fatalf("route too short to plant faults on: %v", res.Path)
	}
	return cube, &serve.WireRoute{Outcome: uint8(core.OutcomeDelivered), Hops: len(res.Path) - 1, Path: res.Path}
}

// TestPlantedWrongAnswersFailTheRun feeds the reply checker one planted
// wrong answer at a time, through the same tally every read loop uses:
// each one must leave the run incorrect, which makes it exit 1.
func TestPlantedWrongAnswersFailTheRun(t *testing.T) {
	cube, good := plantedRoute(t)
	p := good.Path
	healthy := newFaultView(cube)
	nodeDown := newFaultView(cube, p[2])
	linkDown := newFaultView(cube)
	linkDown.links = map[[2]gc.NodeID]bool{linkKey(p[1], p[2]): true}

	cases := []struct {
		name  string
		reply func() *serve.WireRoute
		epoch *faultView
	}{
		{"wrong endpoint", func() *serve.WireRoute {
			r := *good
			r.Path = append(append([]gc.NodeID(nil), p[:len(p)-1]...), p[len(p)-1]^1<<7)
			return &r
		}, healthy},
		{"non-link hop", func() *serve.WireRoute {
			r := *good
			r.Path = append([]gc.NodeID{p[0], p[0] ^ 0b110}, p[1:]...)
			r.Hops = len(r.Path) - 1
			return &r
		}, healthy},
		{"hop through a faulty node", func() *serve.WireRoute { return good }, nodeDown},
		{"hop across a faulty link", func() *serve.WireRoute { return good }, linkDown},
		{"hops != len(path)-1", func() *serve.WireRoute {
			r := *good
			r.Hops++
			return &r
		}, healthy},
		{"epoch never live", func() *serve.WireRoute {
			r := *good
			r.Epoch = 1
			return &r
		}, healthy},
		{"faulty-endpoint refusal with healthy endpoints", func() *serve.WireRoute {
			return &serve.WireRoute{ErrCode: wire.CodeFaultyNode, ErrMsg: []byte("faulty")}
		}, healthy},
		{"canceled outcome", func() *serve.WireRoute {
			return &serve.WireRoute{Outcome: uint8(core.OutcomeCanceled)}
		}, healthy},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v := &validator{cube: cube, hist: staticHistory(c.epoch)}
			r := newReport("planted")
			if !r.tally(v.check(3, 200, c.reply(), 0, 0, nil)) {
				t.Fatal("a wrong answer was tallied as not served")
			}
			if r.correct() {
				t.Fatal("planted wrong answer passed the checker")
			}
		})
	}

	// Controls: the real route, a refusal while an endpoint is faulty,
	// and the memoized fast path all pass.
	v := &validator{cube: cube, hist: staticHistory(healthy)}
	r := newReport("control")
	memo := &routeMemo{}
	for i := 0; i < 2; i++ {
		r.tally(v.check(3, 200, good, 0, 0, memo))
	}
	down := &validator{cube: cube, hist: staticHistory(newFaultView(cube, 200))}
	r.tally(down.check(3, 200, &serve.WireRoute{ErrCode: wire.CodeFaultyNode}, 0, 0, nil))
	if !r.correct() {
		t.Fatalf("correct answers flagged: %v", r.notes)
	}
	// A memoized pair still catches a changed path.
	bad := *good
	bad.Path = append([]gc.NodeID(nil), p...)
	bad.Path[1] ^= 1 << 7
	r.tally(v.check(3, 200, &bad, 0, 0, memo))
	if r.correct() {
		t.Fatal("memo accepted a different, invalid path")
	}
}

func TestServedCountMismatchFailsTheRun(t *testing.T) {
	r := newReport("counts")
	r.checkServed(128, 128)
	if !r.correct() {
		t.Fatal("equal counts flagged")
	}
	r.checkServed(128, 127)
	if r.correct() {
		t.Fatal("client count != served delta passed")
	}
}

func TestSimPointOffGoldenFailsTheRun(t *testing.T) {
	e := &sweepEnv{golden: map[string][]float64{"fig56/M=1/n=6": {6.5, 1.25}}}
	j := &simJob{key: "fig56/M=1/n=6"}
	r := newReport("sim")
	e.check(r, j, simOutcome{values: []float64{6.5, 1.25}})
	if !r.correct() {
		t.Fatal("golden point flagged")
	}
	e.check(r, j, simOutcome{values: []float64{6.5, 1.2500000000000002}})
	if r.correct() {
		t.Fatal("sim point one ulp off golden passed")
	}
}

// TestWrongGoldenExitsNonZero plants a wrong golden point and runs the
// whole command: the run must print correct=false and exit 1.
func TestWrongGoldenExitsNonZero(t *testing.T) {
	var golden map[string][]float64
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		t.Fatal(err)
	}
	golden["fig56/M=1/n=6"][0] += 1e-9
	planted, err := json.Marshal(golden)
	if err != nil {
		t.Fatal(err)
	}
	saved := goldenJSON
	goldenJSON = planted
	defer func() { goldenJSON = saved }()

	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", "sim-sweep", "-seconds", "0.01", "-out", t.TempDir()}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code %d, want 1; stderr: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res struct{ Correct bool }
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || res.Correct {
		t.Fatalf("last line %q: correct=%v err=%v", lines[len(lines)-1], res.Correct, err)
	}
}
