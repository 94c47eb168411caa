package gcube_test

import (
	"context"
	"fmt"
	"time"

	"gaussiancube/pkg/gcube"
)

// ExampleNewRouter plans a route through a fault-free GC(6, 2^2).
func ExampleNewRouter() {
	cube := gcube.NewCube(6, 2)
	r := gcube.NewRouter(cube)
	rep, err := r.RouteContext(context.Background(), 3, 60)
	if err != nil {
		panic(err)
	}
	fmt.Println(rep.Outcome, rep.Hops, rep.Path)
	// Output: delivered 8 [3 11 10 14 15 13 45 44 60]
}

// ExampleWithFaults routes around failed hardware: the planner detours
// and the report says how far off the shortest path it had to go.
func ExampleWithFaults() {
	cube := gcube.NewCube(6, 2)
	faults := gcube.NewFaultSet(cube)
	faults.AddNode(11) // first hop of the fault-free route
	r := gcube.NewRouter(cube, gcube.WithFaults(faults.Freeze()))

	rep, err := r.RouteContext(context.Background(), 3, 60)
	if err != nil {
		panic(err)
	}
	fmt.Println(rep.Outcome.Undeliverable(), rep.Hops >= 8)
	// Output: false true
}

// ExampleNewAdaptiveRouter delivers with per-hop discovery: the packet
// learns about faults from the nodes it visits instead of a global map.
func ExampleNewAdaptiveRouter() {
	cube := gcube.NewCube(6, 2)
	faults := gcube.NewFaultSet(cube)
	faults.AddNode(11)
	r := gcube.NewAdaptiveRouter(cube, faults.Freeze())

	rep, err := r.RouteContext(context.Background(), 3, 60)
	if err != nil {
		panic(err)
	}
	fmt.Println(rep.Outcome.Undeliverable(), len(rep.Discovered) > 0)
	// Output: false true
}

// ExampleRouting shows the unified interface: the same serving loop
// drives either router, and cancellation is a ladder rung, not an
// error.
func ExampleRouting() {
	cube := gcube.NewCube(6, 2)
	routers := []gcube.Routing{
		gcube.NewRouter(cube),
		gcube.NewAdaptiveRouter(cube, nil),
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, r := range routers {
		rep, _ := r.RouteContext(canceled, 3, 60)
		fmt.Println(rep.Outcome)
	}
	// Output:
	// canceled
	// canceled
}

// ExampleNewServer embeds the serving subsystem in-process: submit
// requests, mutate the fault set live, read the merged metrics.
func ExampleNewServer() {
	cube := gcube.NewCube(6, 2)
	srv, err := gcube.NewServer(gcube.ServerConfig{Cube: cube, Shards: 2})
	if err != nil {
		panic(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	resp, err := srv.SubmitTree(context.Background(), 3, 60, gcube.TreeAuto)
	if err != nil {
		panic(err)
	}
	fmt.Println(resp.Report.Outcome, resp.Report.Hops, resp.Epoch)

	epoch, n, err := srv.ApplyFaults([]gcube.FaultOp{
		{Op: gcube.OpInject, Kind: gcube.KindNode, Node: 11},
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(epoch, n)

	resp, err = srv.SubmitTree(context.Background(), 3, 60, gcube.TreeAuto)
	if err != nil {
		panic(err)
	}
	fmt.Println(resp.Report.Outcome.Undeliverable(), resp.Epoch)
	// Output:
	// delivered 8 0
	// 1 1
	// false 1
}
