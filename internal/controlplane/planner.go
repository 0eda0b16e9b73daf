package controlplane

import (
	"encoding/binary"

	"p4update/internal/packet"
	"p4update/internal/topo"
)

// Planner is the unified planning seam shared by every update system: a
// memoizer for pure plan-preparation functions. Plan preparation —
// P4Update segment decomposition, ez-Segway message plans and
// dependency graphs, OptOracle round schedules — is a pure function of
// (topology, flow, paths, version, ...), so a cache keyed on those
// arguments returns byte-identical plans. Each system owns a small XxxCached wrapper that builds its key
// (a KeyBuf with a distinguishing prefix byte), asks Cached first and
// builds the compute closure for Memo only on a miss, so a hit
// allocates nothing; internal/plancache provides the shared
// implementation.
type Planner interface {
	// Cached returns the value stored under key for topology t, with ok
	// false on a miss or for a topology the planner is not bound to. It
	// counts as a lookup exactly like a Memo hit.
	Cached(t *topo.Topology, key []byte) (v any, ok bool, err error)
	// Memo returns the value stored under key for topology t, computing
	// it with compute on a miss. Implementations bound to a different
	// topology must fall through to a direct compute, so a mis-wired
	// cache can never return plans for the wrong graph. Memoized values
	// are shared across trials and must be treated as immutable. key is
	// only read during the call.
	Memo(t *topo.Topology, key []byte, compute func() (any, error)) (any, error)
}

// KeyBuf builds collision-free binary memo keys. Every encoder writes a
// self-delimiting encoding (fixed width, or length-prefixed for paths),
// so distinct argument tuples can never serialize to the same key.
type KeyBuf struct{ b []byte }

// NewKeyBuf returns a KeyBuf that builds its key in scratch's storage (a
// caller's stack array), growing past it only for an unusually long key.
func NewKeyBuf(scratch []byte) KeyBuf { return KeyBuf{b: scratch[:0]} }

// U8 appends one byte (also used as the per-system key prefix).
func (k *KeyBuf) U8(v uint8) { k.b = append(k.b, v) }

// U32 appends a big-endian uint32.
func (k *KeyBuf) U32(v uint32) { k.b = binary.BigEndian.AppendUint32(k.b, v) }

// Path appends a length-prefixed node sequence.
func (k *KeyBuf) Path(p []topo.NodeID) {
	k.U32(uint32(len(p)))
	for _, n := range p {
		k.U32(uint32(n))
	}
}

// Bytes returns the accumulated key.
func (k *KeyBuf) Bytes() []byte { return k.b }

// PreparePlanCached memoizes PreparePlan through p under a 'p'-prefixed
// key; a nil planner computes directly. The returned plan is shared
// across trials and must be treated as immutable — which it is: the
// controller only serializes UIMs, never mutates them.
func PreparePlanCached(p Planner, t *topo.Topology, flow packet.FlowID, oldPath, newPath []topo.NodeID,
	version, sizeK uint32, force *packet.UpdateType) (*Plan, error) {

	var scratch [128]byte
	k := NewKeyBuf(scratch[:])
	return preparePlanCached(p, &k, t, flow, oldPath, newPath, version, sizeK, force)
}

// preparePlanCached is PreparePlanCached building its key in k, whose
// storage the controller reuses update after update: the key escapes
// into the Planner call, so a fresh buffer would cost an allocation.
func preparePlanCached(p Planner, k *KeyBuf, t *topo.Topology, flow packet.FlowID, oldPath, newPath []topo.NodeID,
	version, sizeK uint32, force *packet.UpdateType) (*Plan, error) {

	if p == nil {
		return PreparePlan(t, flow, oldPath, newPath, version, sizeK, force)
	}
	k.b = k.b[:0]
	k.U8('p')
	k.U32(uint32(flow))
	k.U32(version)
	k.U32(sizeK)
	if force == nil {
		k.U8(0xff)
	} else {
		k.U8(uint8(*force))
	}
	k.Path(oldPath)
	k.Path(newPath)
	v, ok, err := p.Cached(t, k.Bytes())
	if !ok {
		v, err = p.Memo(t, k.Bytes(), func() (any, error) {
			return PreparePlan(t, flow, oldPath, newPath, version, sizeK, force)
		})
	}
	plan, _ := v.(*Plan)
	return plan, err
}
