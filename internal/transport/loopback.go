package transport

import (
	"sort"
	"time"

	"p4update/internal/faults"
	"p4update/internal/packet"
	"p4update/internal/topo"
)

// Fabric is the deterministic in-memory lower half used by transport
// tests: a single-threaded virtual-clock datagram network connecting
// any number of endpoints, with a faults.Rule-driven impairment layer
// (drop / duplicate / corrupt) matching the simulator's fault
// vocabulary. Everything runs on the caller's goroutine in FIFO order,
// so a test's delivery schedule is a pure function of its inputs.
type Fabric struct {
	now   time.Duration
	queue []delivery
	eps   map[int32]*Endpoint

	// Rules are consumed in order, first match wins, mirroring
	// faults.Injector semantics over the loopback datagrams.
	rules    []faults.Rule
	ruleLeft []int

	// Latency is the virtual one-way delivery delay recorded against
	// the clock (purely bookkeeping: deliveries stay FIFO).
	Latency time.Duration

	// Dropped and Duplicated count the frames the rules dropped and
	// duplicated.
	Dropped    int
	Duplicated int
}

type delivery struct {
	to  int32
	raw []byte
}

// NewFabric builds an empty fabric.
func NewFabric() *Fabric {
	return &Fabric{eps: make(map[int32]*Endpoint)}
}

// Now returns the fabric's virtual clock.
func (f *Fabric) Now() time.Duration { return f.now }

// Use installs the impairment rules (replacing any previous set).
func (f *Fabric) Use(rules []faults.Rule) {
	f.rules = rules
	f.ruleLeft = make([]int, len(rules))
	for i, r := range rules {
		if r.Count <= 0 {
			f.ruleLeft[i] = -1 // unlimited, like faults.Injector
		} else {
			f.ruleLeft[i] = r.Count
		}
	}
}

// Attach registers an endpoint under a fabric address and returns the
// Datagram lower half to build it with. Call before NewEndpoint:
//
//	port := fab.Attach(3)
//	ep := transport.NewEndpoint(transport.Config{Self: 3, Lower: port, ...})
//	fab.Register(3, ep)
type port struct {
	f    *Fabric
	self int32
}

// WriteTo implements Datagram: the frame is copied (the endpoint
// retains its buffer for retransmit) and run through the fault rules.
func (p *port) WriteTo(peer int32, b []byte) error {
	f := p.f
	raw := append([]byte(nil), b...)
	switch f.match(p.self, peer, raw) {
	case faults.ActDrop:
		f.Dropped++
		return nil
	case faults.ActDuplicate:
		f.Duplicated++
		f.queue = append(f.queue, delivery{to: peer, raw: raw})
		f.queue = append(f.queue, delivery{to: peer, raw: append([]byte(nil), raw...)})
		return nil
	case faults.ActCorrupt:
		// Deterministic detectable corruption, like the simulator's
		// injector: truncate to half length so the decode fails and
		// the reliability layer must recover via retransmit.
		raw = raw[:len(raw)/2]
	}
	f.queue = append(f.queue, delivery{to: peer, raw: raw})
	return nil
}

// Attach returns the Datagram lower half for fabric address self.
func (f *Fabric) Attach(self int32) Datagram { return &port{f: f, self: self} }

// Register binds an endpoint to its fabric address for delivery.
func (f *Fabric) Register(self int32, ep *Endpoint) { f.eps[self] = ep }

// noAction is returned by match when no rule fires.
const noAction faults.RuleAction = 0xff

// match consumes the first live rule matching a datagram, mirroring
// the private faults.Injector matcher: From/To with AnyNode wildcard,
// and Type against the *inner* message type of a sequenced VerbMsg
// frame (TypeFrame matches the envelope itself; TypeInvalid matches
// anything). Fabric addresses map to node IDs, ControllerPeer to
// dataplane's controller pseudo-node.
func (f *Fabric) match(from, to int32, raw []byte) faults.RuleAction {
	for i, r := range f.rules {
		if f.ruleLeft[i] == 0 {
			continue
		}
		if r.From != faults.AnyNode && r.From != topo.NodeID(from) {
			continue
		}
		if r.To != faults.AnyNode && r.To != topo.NodeID(to) {
			continue
		}
		if r.Type != packet.TypeInvalid && !frameCarries(raw, r.Type) {
			continue
		}
		if f.ruleLeft[i] > 0 {
			f.ruleLeft[i]--
		}
		return r.Action
	}
	return noAction
}

// frameCarries reports whether a raw datagram is a Frame whose
// effective type matches t: the inner message type for VerbMsg frames,
// the envelope type otherwise.
func frameCarries(raw []byte, t packet.MsgType) bool {
	if len(raw) == 0 || packet.MsgType(raw[0]) != packet.TypeFrame {
		return false
	}
	if t == packet.TypeFrame {
		return true
	}
	if len(raw) <= packet.FrameHeaderSize || packet.FrameVerb(raw[1]) != packet.VerbMsg {
		return false
	}
	return packet.MsgType(raw[packet.FrameHeaderSize]) == t
}

// Step delivers the oldest queued datagram. It reports whether one was
// delivered.
func (f *Fabric) Step() bool {
	if len(f.queue) == 0 {
		return false
	}
	d := f.queue[0]
	f.queue = f.queue[1:]
	f.now += f.Latency
	if ep := f.eps[d.to]; ep != nil {
		ep.OnDatagram(d.raw, f.now)
	}
	return true
}

// Flush delivers until the queue drains (handlers may enqueue more).
func (f *Fabric) Flush() {
	for f.Step() {
	}
}

// Advance moves the virtual clock forward and ticks every endpoint's
// retransmit timer at the new instant, then flushes the deliveries the
// ticks produced. Endpoints tick in address order for determinism.
func (f *Fabric) Advance(d time.Duration) {
	f.now += d
	ids := make([]int32, 0, len(f.eps))
	for id := range f.eps {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		f.eps[id].Tick(f.now)
	}
	f.Flush()
}
