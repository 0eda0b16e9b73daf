package dataplane

import (
	"math/rand"
	"testing"

	"p4update/internal/packet"
)

// TestFlowIndexMatchesMap drives random put, get, remove and reset
// sequences through the flow index and a Go map side by side. Half the
// IDs are drawn from a pool whose hashes share their top ten bits, all
// ones: up to 1,024 buckets they share one home bucket, the table's
// last, so their probe runs collide, wrap past the table's end, and
// deleting from them shifts entries back across the wrap. After every
// step each reference key must resolve to its slot, the entry count
// must match, and IDs the map lacks must miss.
func TestFlowIndexMatchesMap(t *testing.T) {
	var colliding []packet.FlowID
	for f := packet.FlowID(0); len(colliding) < 64; f++ {
		if uint32(f)*0x9e3779b9>>22 == 0x3ff {
			colliding = append(colliding, f)
		}
	}
	rng := rand.New(rand.NewSource(3))
	pick := func() packet.FlowID {
		if rng.Intn(2) == 0 {
			return colliding[rng.Intn(len(colliding))]
		}
		return packet.FlowID(rng.Intn(400))
	}
	var x flowIndex
	ref := make(map[packet.FlowID]int32)
	wrapped := false
	for step := 0; step < 200_000; step++ {
		f := pick()
		want, has := ref[f]
		switch op := rng.Intn(100); {
		case op < 45:
			if !has && len(ref) < 200 {
				slot := int32(rng.Intn(1 << 20))
				x.put(f, slot)
				ref[f] = slot
			}
		case op < 85:
			// Removing with another slot than the one held is a stale
			// release and must leave the entry alone.
			slot := want
			if rng.Intn(4) == 0 {
				slot++
			}
			got := x.remove(f, slot)
			if exp := has && slot == want; got != exp {
				t.Fatalf("step %d: remove(%d, %d) = %v, want %v", step, f, slot, got, exp)
			}
			if got {
				delete(ref, f)
			}
		case op < 99:
			if got, ok := x.get(f); ok != has || got != want {
				t.Fatalf("step %d: get(%d) = (%d, %v), want (%d, %v)", step, f, got, ok, want, has)
			}
		default:
			size := len(x.tab)
			x.reset()
			clear(ref)
			if len(x.tab) != size {
				t.Fatalf("step %d: reset resized the table from %d to %d buckets", step, size, len(x.tab))
			}
		}
		if x.n != len(ref) {
			t.Fatalf("step %d: index holds %d entries, reference %d", step, x.n, len(ref))
		}
		if 2*x.n > len(x.tab) {
			t.Fatalf("step %d: %d entries in %d buckets, more than half full", step, x.n, len(x.tab))
		}
		if len(x.tab) > 0 && x.tab[0].slot1 != 0 && x.home(x.tab[0].id) == len(x.tab)-1 {
			wrapped = true
		}
		if step%97 == 0 {
			for g, slot := range ref {
				if got, ok := x.get(g); !ok || got != slot {
					t.Fatalf("step %d: get(%d) = (%d, %v), want (%d, true)", step, g, got, ok, slot)
				}
			}
		}
	}
	if !wrapped {
		t.Fatal("no probe run wrapped past the table's end; the test covers no wrap")
	}
}
