package dataplane

import "p4update/internal/packet"

// flowIndex maps the fabric's live flow IDs to their dense slots: the
// one hashed flow index a P4 target reads its register arrays through.
// It is an open-addressed table of (FlowID, slot) pairs, a power of two
// in size and at most half full, probed linearly from a multiplicative
// hash. Deletion shifts the entries after a removed one back toward
// their home buckets instead of leaving tombstones, so a lookup never
// probes past the first empty bucket of a run. Nothing iterates the
// table for output (the slot space is what callers walk), so its layout
// cannot leak into any result. Like the engine it serves, it is
// single-threaded.
type flowIndex struct {
	tab []indexEntry
	n   int // live entries
}

// indexEntry is one bucket; slot1 is the slot plus one, so the zero
// entry is an empty bucket.
type indexEntry struct {
	id    packet.FlowID
	slot1 int32
}

// minIndexSize is the first table a fabric allocates: 8 live flows.
const minIndexSize = 16

// home is f's home bucket: the top bits of a Fibonacci hash, which
// spread the sequential IDs the harnesses allocate over the table.
func (x *flowIndex) home(f packet.FlowID) int {
	return int((uint64(uint32(f)*0x9e3779b9) * uint64(len(x.tab))) >> 32)
}

// find returns f's bucket, or the empty bucket that ends f's probe run
// and false. The table must not be empty.
func (x *flowIndex) find(f packet.FlowID) (int, bool) {
	mask := len(x.tab) - 1
	for i := x.home(f); ; i = (i + 1) & mask {
		switch e := x.tab[i]; {
		case e.slot1 == 0:
			return i, false
		case e.id == f:
			return i, true
		}
	}
}

// get returns f's slot.
func (x *flowIndex) get(f packet.FlowID) (int32, bool) {
	if x.n == 0 {
		return 0, false
	}
	if i, ok := x.find(f); ok {
		return x.tab[i].slot1 - 1, true
	}
	return 0, false
}

// put maps f, which the index must not hold, to slot.
func (x *flowIndex) put(f packet.FlowID, slot int32) {
	if 2*(x.n+1) > len(x.tab) {
		x.grow()
	}
	i, _ := x.find(f)
	x.tab[i] = indexEntry{f, slot + 1}
	x.n++
}

// grow doubles the table (or allocates the first one) and rehashes.
func (x *flowIndex) grow() {
	old := x.tab
	x.tab = make([]indexEntry, max(2*len(old), minIndexSize))
	for _, e := range old {
		if e.slot1 != 0 {
			i, _ := x.find(e.id)
			x.tab[i] = e
		}
	}
}

// remove deletes f if it maps to slot, reporting whether it did. Each
// entry after the hole whose home bucket does not lie between the hole
// and itself moves back into the hole, which then moves to where the
// entry stood, until the run ends.
func (x *flowIndex) remove(f packet.FlowID, slot int32) bool {
	if x.n == 0 {
		return false
	}
	i, ok := x.find(f)
	if !ok || x.tab[i].slot1 != slot+1 {
		return false
	}
	mask := len(x.tab) - 1
	for j := (i + 1) & mask; x.tab[j].slot1 != 0; j = (j + 1) & mask {
		if (j-x.home(x.tab[j].id))&mask >= (j-i)&mask {
			x.tab[i] = x.tab[j]
			i = j
		}
	}
	x.tab[i] = indexEntry{}
	x.n--
	return true
}

// reset empties the index, keeping its table.
func (x *flowIndex) reset() {
	clear(x.tab)
	x.n = 0
}
