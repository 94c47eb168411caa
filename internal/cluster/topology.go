// Package cluster runs several serve.Server instances as one logical
// Gaussian-cube router (DESIGN.md §13). Ownership follows the paper's
// own decomposition: the Gaussian Tree partitions GC(n, 2^alpha) into
// 2^alpha ending classes, and a topology assigns each instance a
// contiguous class range, which clients follow so each class's route
// cache stays on one instance. Every instance answers every route,
// broadcast and multicast it receives, whoever owns the source class;
// fault mutations propagate between instances by pull-based
// anti-entropy gossip on the (epoch, fingerprint) frontier, with the
// durable journal serving exact history suffixes and a snapshot
// fallback. Instances keep serving through partitions and stamp what
// they cannot vouch for as delivered-degraded.
package cluster

import (
	"fmt"
	"strconv"
	"strings"

	"gaussiancube/internal/gc"
)

// Member is one cluster instance: a wire address owning the inclusive
// ending-class range [Lo, Hi].
type Member struct {
	Addr string
	Lo   int
	Hi   int
}

// Range formats the member's class range as it appears in -class-ranges.
func (m Member) Range() string {
	if m.Lo == m.Hi {
		return strconv.Itoa(m.Lo)
	}
	return fmt.Sprintf("%d-%d", m.Lo, m.Hi)
}

func (m Member) String() string { return m.Range() + "@" + m.Addr }

// Topology is a validated class-ownership map: every ending class of
// the cube has exactly one owning member. Immutable after New.
type Topology struct {
	cube    *gc.Cube
	members []Member
	owner   []int // class -> index into members
	byAddr  map[string]int
}

// New validates a member list against the cube: every range in bounds
// and non-inverted, no class owned twice, no class unowned, no
// duplicate address. Member order is preserved — the ring used for
// client failover is the declaration order.
func New(cube *gc.Cube, members []Member) (*Topology, error) {
	classes := 1 << cube.Alpha()
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: no members")
	}
	t := &Topology{
		cube:    cube,
		members: append([]Member(nil), members...),
		owner:   make([]int, classes),
		byAddr:  make(map[string]int, len(members)),
	}
	for i := range t.owner {
		t.owner[i] = -1
	}
	for i, m := range t.members {
		if m.Addr == "" {
			return nil, fmt.Errorf("cluster: member %d has no address", i)
		}
		if _, dup := t.byAddr[m.Addr]; dup {
			return nil, fmt.Errorf("cluster: address %s declared twice", m.Addr)
		}
		t.byAddr[m.Addr] = i
		if m.Lo < 0 || m.Hi >= classes || m.Lo > m.Hi {
			return nil, fmt.Errorf("cluster: member %s: range %s invalid for %d ending classes",
				m.Addr, m.Range(), classes)
		}
		for c := m.Lo; c <= m.Hi; c++ {
			if prev := t.owner[c]; prev >= 0 {
				return nil, fmt.Errorf("cluster: class %d owned by both %s and %s",
					c, t.members[prev].Addr, m.Addr)
			}
			t.owner[c] = i
		}
	}
	for c, o := range t.owner {
		if o < 0 {
			return nil, fmt.Errorf("cluster: class %d unowned (ranges must cover 0-%d)", c, classes-1)
		}
	}
	return t, nil
}

// ParseMembers parses the -class-ranges flag form:
// "0-1@host:port,2@host:port,3@host:port". A bare class "2" is the
// one-class range 2-2. Validation beyond syntax happens in New.
func ParseMembers(spec string) ([]Member, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("cluster: empty class-range spec")
	}
	parts := strings.Split(spec, ",")
	members := make([]Member, 0, len(parts))
	for _, part := range parts {
		part = strings.TrimSpace(part)
		rng, addr, ok := strings.Cut(part, "@")
		if !ok || addr == "" {
			return nil, fmt.Errorf("cluster: %q: want CLASSRANGE@ADDR", part)
		}
		lo, hi, err := parseRange(rng)
		if err != nil {
			return nil, fmt.Errorf("cluster: %q: %v", part, err)
		}
		members = append(members, Member{Addr: addr, Lo: lo, Hi: hi})
	}
	return members, nil
}

func parseRange(s string) (lo, hi int, err error) {
	loS, hiS, dashed := strings.Cut(s, "-")
	lo, err = strconv.Atoi(strings.TrimSpace(loS))
	if err != nil {
		return 0, 0, fmt.Errorf("bad class %q", loS)
	}
	if !dashed {
		return lo, lo, nil
	}
	hi, err = strconv.Atoi(strings.TrimSpace(hiS))
	if err != nil {
		return 0, 0, fmt.Errorf("bad class %q", hiS)
	}
	return lo, hi, nil
}

// SplitEven slices `classes` ending classes into n contiguous ranges
// as evenly as possible — the default layout when operators give peer
// addresses without explicit ranges. n must not exceed classes.
func SplitEven(classes, n int) ([][2]int, error) {
	if n <= 0 || n > classes {
		return nil, fmt.Errorf("cluster: cannot split %d classes across %d instances", classes, n)
	}
	out := make([][2]int, n)
	base, extra := classes/n, classes%n
	lo := 0
	for i := 0; i < n; i++ {
		size := base
		if i < extra {
			size++
		}
		out[i] = [2]int{lo, lo + size - 1}
		lo += size
	}
	return out, nil
}

// Cube returns the cube the topology partitions.
func (t *Topology) Cube() *gc.Cube { return t.cube }

// Members returns the member list in ring order. Callers must not
// modify it.
func (t *Topology) Members() []Member { return t.members }

// Classes returns the number of ending classes (2^alpha).
func (t *Topology) Classes() int { return len(t.owner) }

// Owner returns the member index owning the given ending class, or -1
// when the class is out of range.
func (t *Topology) Owner(class int) int {
	if class < 0 || class >= len(t.owner) {
		return -1
	}
	return t.owner[class]
}

// OwnerOf returns the member index owning node p's ending class, or
// -1 for an out-of-range node.
func (t *Topology) OwnerOf(p gc.NodeID) int {
	if int(p) >= t.cube.Nodes() {
		return -1
	}
	return t.owner[int(t.cube.EndingClass(p))]
}

// Successor returns the next member on the ring after i — the
// failover target when the owner is unreachable.
func (t *Topology) Successor(i int) int { return (i + 1) % len(t.members) }

// IndexOf returns the member index for an advertise address, or -1.
func (t *Topology) IndexOf(addr string) int {
	i, ok := t.byAddr[addr]
	if !ok {
		return -1
	}
	return i
}
