package deploy

import (
	"fmt"
	"net"
	"sort"
	"time"

	"p4update/internal/dataplane"
	"p4update/internal/packet"
	"p4update/internal/topo"
	"p4update/internal/transport"
)

// wireView implements dataplane.Transport for one process: exactly one
// party (a switch, or the controller as dataplane.NodeController) is
// local; every frame bound elsewhere is wrapped in a packet.Frame and
// handed to send (which feeds the reliability endpoint). The remaining
// wiring.System parties exist as silent replicas — the intercept
// guarantees they never receive traffic.
type wireView struct {
	self topo.NodeID
	send func(to int32, f *packet.Frame)
}

func (v *wireView) Local(party topo.NodeID) bool { return party == v.self }

// Forward wraps raw for the reliability endpoint. The controller's node
// ID is its peer ID (pinned below), and topo.InvalidPort (control-channel
// frames) converts to packet.NoPort.
func (v *wireView) Forward(from, to topo.NodeID, inPort topo.PortID, raw []byte) {
	v.send(int32(to), &packet.Frame{Verb: packet.VerbMsg, InPort: uint16(int32(inPort)), Payload: raw})
}

// Compile-time pin: dataplane.NodeController == transport.ControllerPeer.
var _ = [1]struct{}{}[int32(dataplane.NodeController)-transport.ControllerPeer]

// rxPort maps a frame's InPort back to the dataplane's notion: NoPort
// (controller traffic) becomes topo.InvalidPort.
func rxPort(f *packet.Frame) topo.PortID {
	if f.InPort == packet.NoPort {
		return topo.InvalidPort
	}
	return topo.PortID(int32(f.InPort))
}

// Addressing convention: the controller listens on basePort, switch i
// on basePort+1+i, all on the IPv4 loopback.

// ListenLocal binds a UDP socket on 127.0.0.1:port (0 for ephemeral).
func ListenLocal(port int) (*net.UDPConn, error) {
	return net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: port})
}

// PeerAddrs builds the conventional address book for a fabric of n
// switches: entry -1 is the controller, entries 0..n-1 the switches.
func PeerAddrs(basePort, n int) map[int32]string {
	m := make(map[int32]string, n+1)
	m[int32(transport.ControllerPeer)] = fmt.Sprintf("127.0.0.1:%d", basePort)
	for i := 0; i < n; i++ {
		m[int32(i)] = fmt.Sprintf("127.0.0.1:%d", basePort+1+i)
	}
	return m
}

// newWire stacks UDP + reliability endpoint for one daemon. peers may
// omit the daemon's own entry.
func newWire(conn *net.UDPConn, peers map[int32]string, self int32, epoch uint32,
	rto time.Duration, handler transport.Handler) (*transport.UDP, *transport.Endpoint, error) {

	udp := transport.NewUDP(conn)
	ids := make([]int32, 0, len(peers))
	for id := range peers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if id == self {
			continue
		}
		if err := udp.SetPeer(id, peers[id]); err != nil {
			return nil, nil, err
		}
	}
	ep := transport.NewEndpoint(transport.Config{
		Self:  self,
		Epoch: epoch,
		RTO:   rto,
		// A controller outage must be survivable by in-flight frames:
		// with the default 100ms RTO this retries for ~12s before
		// declaring a peer gone.
		MaxTries: 120,
		Lower:    udp,
		Handler:  handler,
	})
	return udp, ep, nil
}
