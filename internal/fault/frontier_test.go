package fault

import "testing"

// TestCompareFrontier pins the frontier order: epoch first, fingerprint
// as the deterministic tie-break, zero only on identical stamps.
func TestCompareFrontier(t *testing.T) {
	cases := []struct {
		name           string
		ea, fa, eb, fb uint64
		want           int
	}{
		{"behind by epoch", 3, 99, 5, 1, -1},
		{"ahead by epoch", 7, 0, 5, 0xffff, +1},
		{"identical", 4, 42, 4, 42, 0},
		{"tie broken low", 4, 10, 4, 20, -1},
		{"tie broken high", 4, 20, 4, 10, +1},
		{"zero epochs", 0, 0, 0, 0, 0},
	}
	for _, c := range cases {
		if got := CompareFrontier(c.ea, c.fa, c.eb, c.fb); got != c.want {
			t.Errorf("%s: CompareFrontier(%d,%#x,%d,%#x) = %d, want %d",
				c.name, c.ea, c.fa, c.eb, c.fb, got, c.want)
		}
	}
	// Antisymmetry over a small grid: swapping the operands negates the
	// verdict, which is what guarantees two peers agree on who pulls.
	for ea := uint64(0); ea < 3; ea++ {
		for fa := uint64(0); fa < 3; fa++ {
			for eb := uint64(0); eb < 3; eb++ {
				for fb := uint64(0); fb < 3; fb++ {
					if CompareFrontier(ea, fa, eb, fb) != -CompareFrontier(eb, fb, ea, fa) {
						t.Fatalf("not antisymmetric at (%d,%d) vs (%d,%d)", ea, fa, eb, fb)
					}
				}
			}
		}
	}
}
