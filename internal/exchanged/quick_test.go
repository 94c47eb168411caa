package exchanged

import (
	"testing"
	"testing/quick"
)

// Property-based tests (testing/quick) on the exchanged hypercube.

func TestQuickComposeRoundTrip(t *testing.T) {
	f := func(sRaw, tRaw uint8, vRaw uint32) bool {
		s := uint(1 + sRaw%6)
		tt := uint(1 + tRaw%6)
		e := New(s, tt)
		v := Node(uint(vRaw) % uint(e.Nodes()))
		return e.Compose(e.A(v), e.B(v), e.C(v)) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickDistanceSymmetricIdentity(t *testing.T) {
	f := func(sRaw, tRaw uint8, uRaw, vRaw uint32) bool {
		s := uint(1 + sRaw%6)
		tt := uint(1 + tRaw%6)
		e := New(s, tt)
		u := Node(uint(uRaw) % uint(e.Nodes()))
		v := Node(uint(vRaw) % uint(e.Nodes()))
		if e.Distance(u, v) != e.Distance(v, u) {
			return false
		}
		return (e.Distance(u, v) == 0) == (u == v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickNeighborDistanceOne(t *testing.T) {
	f := func(sRaw, tRaw uint8, vRaw uint32) bool {
		s := uint(1 + sRaw%5)
		tt := uint(1 + tRaw%5)
		e := New(s, tt)
		v := Node(uint(vRaw) % uint(e.Nodes()))
		for _, w := range e.Neighbors(v) {
			if e.Distance(v, w) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestQuickFaultFreeRouteMinimal(t *testing.T) {
	f := func(sRaw, tRaw uint8, rRaw, dRaw uint32) bool {
		s := uint(1 + sRaw%5)
		tt := uint(1 + tRaw%5)
		e := New(s, tt)
		r := Node(uint(rRaw) % uint(e.Nodes()))
		d := Node(uint(dRaw) % uint(e.Nodes()))
		walk, err := route(e, NoFaults{}, r, d)
		if err != nil {
			return false
		}
		if ValidatePath(e, NoFaults{}, walk, r, d) != nil {
			return false
		}
		return len(walk)-1 == e.Distance(r, d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
