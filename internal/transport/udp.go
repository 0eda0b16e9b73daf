package transport

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// UDP is the production lower half: one socket per process, a static
// address book mapping peer IDs to UDP addresses, a reader goroutine
// feeding the endpoint, and a ticker goroutine driving retransmits.
// The clock handed to the endpoint is monotonic time since Start.
type UDP struct {
	conn  *net.UDPConn
	start time.Time

	mu    sync.Mutex
	peers map[int32]*net.UDPAddr

	closed  chan struct{}
	started bool
	wg      sync.WaitGroup
}

// NewUDP wraps an already-bound connection (tests bind to 127.0.0.1:0
// and exchange real ports; daemons bind their conventional port).
func NewUDP(conn *net.UDPConn) *UDP {
	return &UDP{
		conn:   conn,
		start:  time.Now(),
		peers:  make(map[int32]*net.UDPAddr),
		closed: make(chan struct{}),
	}
}

// SetPeer registers or replaces a peer's address.
func (u *UDP) SetPeer(id int32, addr string) error {
	a, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("transport: peer %d: %w", id, err)
	}
	u.mu.Lock()
	u.peers[id] = a
	u.mu.Unlock()
	return nil
}

// Now returns the monotonic clock passed to the endpoint.
func (u *UDP) Now() time.Duration { return time.Since(u.start) }

// WriteTo implements Datagram.
func (u *UDP) WriteTo(peer int32, b []byte) error {
	u.mu.Lock()
	a := u.peers[peer]
	u.mu.Unlock()
	if a == nil {
		return fmt.Errorf("transport: no address for peer %d", peer)
	}
	_, err := u.conn.WriteToUDP(b, a)
	return err
}

// Start launches the reader and retransmit-ticker goroutines feeding
// ep. tick is the Tick cadence (default RTO/4 when zero isn't usable;
// pass something like 25ms).
func (u *UDP) Start(ep *Endpoint, tick time.Duration) {
	if u.started {
		return
	}
	u.started = true
	if tick <= 0 {
		tick = 25 * time.Millisecond
	}
	u.wg.Add(2)
	go func() {
		defer u.wg.Done()
		buf := make([]byte, 2048)
		for {
			n, _, err := u.conn.ReadFromUDP(buf)
			if err != nil {
				select {
				case <-u.closed:
					return
				default:
				}
				// Transient read errors (e.g. ICMP-triggered) are
				// indistinguishable from loss; keep reading.
				continue
			}
			ep.OnDatagram(buf[:n], u.Now())
		}
	}()
	go func() {
		defer u.wg.Done()
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-u.closed:
				return
			case <-t.C:
				ep.Tick(u.Now())
			}
		}
	}()
}

// Close stops the goroutines and closes the socket.
func (u *UDP) Close() error {
	select {
	case <-u.closed:
		return nil
	default:
	}
	close(u.closed)
	err := u.conn.Close()
	u.wg.Wait()
	return err
}
