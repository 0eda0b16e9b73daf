package dataplane

import "p4update/internal/topo"

// holderInline is how many holders a flow slot keeps inline. Holder
// counts measured at State/PeekState lookups: the fat-tree K=8 burst
// never sees more than 8, fat-tree K=16 churn and the 12-node B4 soak
// never more than 12 (0.8 % and 18 % of their lookups see 9-12), and
// only the paper grid spills (4.5 % of its lookups see 13-14).
const holderInline = 12

// holder is one switch's claim on a flow slot: the node and its state
// block in that switch's slab.
type holder struct {
	node topo.NodeID
	ref  stateRef
}

// holderSet lists the switches holding a state block for one flow slot,
// sorted by node. The first holderInline holders live inline and the
// rest in spill, whose capacity outlives the slot's tenant so a recycled
// slot spills again without allocating. A set takes 128 bytes, so sets
// sit in an array beside the 12-byte slot entries (flowTable.holders),
// not inside them: the auditor's scan of the slot space strides over the
// entries only.
type holderSet struct {
	inline [holderInline]holder
	n      int32
	spill  []holder
}

// at returns the k-th holder in node order.
func (h *holderSet) at(k int) holder {
	if k < holderInline {
		return h.inline[k]
	}
	return h.spill[k-holderInline]
}

func (h *holderSet) set(k int, x holder) {
	if k < holderInline {
		h.inline[k] = x
	} else {
		h.spill[k-holderInline] = x
	}
}

// find returns node's state reference, or 0 and the position it would
// be inserted at.
func (h *holderSet) find(node topo.NodeID) (stateRef, int) {
	for k, x := range h.inline[:min(int(h.n), holderInline)] {
		if x.node >= node {
			if x.node == node {
				return x.ref, k
			}
			return 0, k
		}
	}
	for k, x := range h.spill {
		if x.node >= node {
			if x.node == node {
				return x.ref, holderInline + k
			}
			return 0, holderInline + k
		}
	}
	return 0, int(h.n)
}

// ref returns node's state reference, 0 if node holds none.
func (h *holderSet) ref(node topo.NodeID) stateRef {
	r, _ := h.find(node)
	return r
}

// insert adds node's reference at position k (from find), keeping the
// set sorted.
func (h *holderSet) insert(k int, node topo.NodeID, r stateRef) {
	n := int(h.n)
	if n >= holderInline {
		h.spill = append(h.spill, holder{})
	}
	for j := n; j > k; j-- {
		h.set(j, h.at(j-1))
	}
	h.set(k, holder{node, r})
	h.n++
}

// reset empties the set, keeping the spill's capacity.
func (h *holderSet) reset() {
	h.n = 0
	h.spill = h.spill[:0]
}
