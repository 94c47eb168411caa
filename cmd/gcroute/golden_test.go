package main

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"encoding/json"

	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/serve"
	"gaussiancube/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// checkGolden compares the full CLI output against a golden file
// byte for byte; -update rewrites the file instead.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s (re-run with -update after intentional changes)\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// parseRouteOutput extracts the numbered-path nodes and the trace
// section's walk-bearing events (hop, flip, rollback) back out of the
// CLI text.
func parseRouteOutput(t *testing.T, out string) ([]uint32, []trace.Event) {
	t.Helper()
	var path []uint32
	var events []trace.Event
	pathLine := regexp.MustCompile(`^\s+\d+: ([01]+)`)
	hopLine := regexp.MustCompile(`^\s+(hop|flip)\s+([01]+) -> ([01]+)`)
	rollbackLine := regexp.MustCompile(`^\s+rollback (\d+) hops`)
	inTrace := false
	for _, line := range strings.Split(out, "\n") {
		if line == "trace:" {
			inTrace = true
			continue
		}
		if !inTrace {
			if m := pathLine.FindStringSubmatch(line); m != nil {
				v, err := strconv.ParseUint(m[1], 2, 32)
				if err != nil {
					t.Fatal(err)
				}
				path = append(path, uint32(v))
			}
			continue
		}
		if m := hopLine.FindStringSubmatch(line); m != nil {
			from, err1 := strconv.ParseUint(m[2], 2, 32)
			to, err2 := strconv.ParseUint(m[3], 2, 32)
			if err1 != nil || err2 != nil {
				t.Fatalf("bad hop line %q", line)
			}
			k := trace.KindHop
			if m[1] == "flip" {
				k = trace.KindFlip
			}
			events = append(events, trace.Event{Kind: k, From: uint32(from), To: uint32(to)})
		} else if m := rollbackLine.FindStringSubmatch(line); m != nil {
			arg, err := strconv.Atoi(m[1])
			if err != nil {
				t.Fatal(err)
			}
			events = append(events, trace.Event{Kind: trace.KindRollback, Arg: int32(arg)})
		}
	}
	if len(path) == 0 || len(events) == 0 {
		t.Fatalf("could not parse path/trace sections:\n%s", out)
	}
	return path, events
}

func TestGoldenTraceFaultFree(t *testing.T) {
	checkGolden(t, "trace_faultfree.golden",
		runOK(t, "-n", "8", "-alpha", "2", "-from", "5", "-to", "201", "-trace"))
}

func TestGoldenTraceDetour(t *testing.T) {
	checkGolden(t, "trace_detour.golden",
		runOK(t, "-n", "8", "-alpha", "2", "-from", "0", "-to", "16", "-faultlinks", "0:4", "-trace"))
}

// TestGoldenTraceFallback pins a route past the strategy's reach — two
// C-category node faults and an A-category link fault — so both the
// fault listing (nodes ascending, then links by node and dimension,
// whatever the flag order) and the BFS fallback's path are fixed.
func TestGoldenTraceFallback(t *testing.T) {
	checkGolden(t, "trace_fallback.golden",
		runOK(t, "-n", "8", "-alpha", "2", "-from", "5", "-to", "201",
			"-faultnodes", "47,7", "-faultlinks", "0:4", "-trace"))
}

// TestTraceNarrativeMatchesPath validates the printed narrative against
// the printed path: every hop line of the trace section must appear as
// a transition of the numbered path section, in order — the CLI-level
// form of the replay property.
func TestTraceNarrativeMatchesPath(t *testing.T) {
	out := runOK(t, "-n", "8", "-alpha", "2", "-from", "5", "-to", "201", "-trace")
	path, events := parseRouteOutput(t, out)
	walk, err := trace.Replay(path[0], events)
	if err != nil {
		t.Fatalf("narrative does not replay: %v", err)
	}
	if len(walk) != len(path) {
		t.Fatalf("narrative replays to %d nodes, printed path has %d", len(walk), len(path))
	}
	for i := range walk {
		if walk[i] != path[i] {
			t.Fatalf("narrative diverges from printed path at hop %d: %d vs %d", i, walk[i], path[i])
		}
	}
}

// Collective goldens: the CLI's -broadcast/-multicast JSON is the
// exact document POST /broadcast and /multicast serve, pinned byte
// for byte, then parsed back and re-validated — conservation law,
// re-rooting claim, and every delivery claim against a fresh BFS
// reachability oracle built from the same fault flags (the golden
// twin of the serve-layer oracle tests).
func TestGoldenBroadcastReRooted(t *testing.T) {
	out := runOK(t, "-n", "6", "-alpha", "2", "-from", "5", "-broadcast", "-faultnodes", "5")
	checkGolden(t, "broadcast_rerooted.json.golden", out)
	replayCollective(t, out, 6, 2, []uint{5}, nil)
}

func TestGoldenMulticastPartitioned(t *testing.T) {
	// Severing all three links of node 9 (tree dims 0, 1 and the
	// intra-class dim 5) cuts it from the rest of the cube: the
	// multicast must prove the partition, not guess.
	out := runOK(t, "-n", "6", "-alpha", "2", "-from", "0",
		"-multicast", "9,41,9", "-faultlinks", "9:0,9:1,9:5")
	checkGolden(t, "multicast_partitioned.json.golden", out)
	replayCollective(t, out, 6, 2, nil, [][2]uint{{9, 0}, {9, 1}, {9, 5}})
}

// replayCollective parses the CLI's JSON back and re-derives the
// verdicts it claims.
func replayCollective(t *testing.T, out string, n, alpha uint, faultNodes []uint, faultLinks [][2]uint) {
	t.Helper()
	var reply serve.CollectiveReply
	if err := json.Unmarshal([]byte(out), &reply); err != nil {
		t.Fatalf("CLI output is not the wire JSON document: %v", err)
	}
	if reply.Delivered+reply.DegradedN+reply.Unreached != len(reply.Dests) {
		t.Fatalf("conservation broken: %+v", reply)
	}
	cube := gc.New(n, alpha)
	set := fault.NewSet(cube)
	for _, v := range faultNodes {
		set.AddNode(gc.NodeID(v))
	}
	for _, l := range faultLinks {
		set.AddLink(gc.NodeID(l[0]), l[1])
	}
	set.Freeze()
	if set.NodeFaulty(reply.Origin) != reply.ReRooted {
		t.Fatalf("re-rooting claim inconsistent with fault set: %+v", reply)
	}
	// BFS reachability from the effective root over healthy links.
	reach := make([]bool, cube.Nodes())
	if !set.NodeFaulty(reply.Root) {
		reach[reply.Root] = true
		queue := []gc.NodeID{reply.Root}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for dim := uint(0); dim < n; dim++ {
				if !cube.HasLinkDim(v, dim) || set.LinkFaulty(v, dim) {
					continue
				}
				w := v ^ gc.NodeID(1)<<dim
				if !reach[w] {
					reach[w] = true
					queue = append(queue, w)
				}
			}
		}
	}
	for _, d := range reply.Dests {
		delivered := d.Outcome == "delivered" || d.Outcome == "delivered-degraded"
		want := reach[d.Dest] || d.Dest == reply.Origin && !set.NodeFaulty(d.Dest)
		if delivered != want {
			t.Fatalf("dest %d: claimed %q, oracle reachable=%v", d.Dest, d.Outcome, want)
		}
		if !delivered && d.Hops != -1 {
			t.Fatalf("unreached dest %d carries hops %d", d.Dest, d.Hops)
		}
	}
}
