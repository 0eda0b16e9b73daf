package packet

import "fmt"

// Pool recycles message structs and marshal buffers for one simulation
// engine.
//
// The simulation engine is single-threaded by contract, so the free
// lists need no locking (unlike sync.Pool, nothing is ever contended
// and nothing is dropped by GC cycles). Ownership protocol: whoever
// pops a struct with Get*/Decode owns it until it calls Put*/Recycle;
// handlers that need a message beyond the dispatch call (a parked
// notification, a staged commit, a protocol's instruction record) must
// copy the struct first. That holds for every decoded type, indications
// and batches included: switches keep the indication they act on by
// value (dataplane.FlowState.UIM).
type Pool struct {
	data  freeList[Data]
	unm   freeList[UNM]
	ezn   freeList[EZN]
	uim   freeList[UIM]
	ufm   freeList[UFM]
	cln   freeList[CLN]
	batch freeList[UIMBatch]
	bufs  [][]byte
}

// freeList is one message type's LIFO of recycled structs.
type freeList[T any] struct{ free []*T }

func (l *freeList[T]) get() *T {
	if n := len(l.free); n > 0 {
		m := l.free[n-1]
		l.free = l.free[:n-1]
		return m
	}
	return new(T)
}

func (l *freeList[T]) put(m *T) {
	var zero T
	*m = zero
	l.free = append(l.free, m)
}

// GetData pops a zeroed Data from the pool (allocating if empty).
func (p *Pool) GetData() *Data { return p.data.get() }

// PutData zeroes d and returns it to the pool.
func (p *Pool) PutData(d *Data) { p.data.put(d) }

// GetUNM pops a zeroed UNM from the pool (allocating if empty).
func (p *Pool) GetUNM() *UNM { return p.unm.get() }

// PutUNM zeroes m and returns it to the pool.
func (p *Pool) PutUNM(m *UNM) { p.unm.put(m) }

// GetEZN pops a zeroed EZN from the pool (allocating if empty).
func (p *Pool) GetEZN() *EZN { return p.ezn.get() }

// PutEZN zeroes m and returns it to the pool.
func (p *Pool) PutEZN(m *EZN) { p.ezn.put(m) }

// GetUFM pops a zeroed UFM from the pool (allocating if empty).
func (p *Pool) GetUFM() *UFM { return p.ufm.get() }

// PutUFM zeroes m and returns it to the pool.
func (p *Pool) PutUFM(m *UFM) { p.ufm.put(m) }

// GetBuf pops a zero-length marshal buffer (nil if the pool is empty;
// SerializeTo grows it as needed and the grown capacity is what gets
// recycled).
func (p *Pool) GetBuf() []byte {
	if n := len(p.bufs); n > 0 {
		b := p.bufs[n-1]
		p.bufs = p.bufs[:n-1]
		return b
	}
	return nil
}

// PutBuf returns a marshal buffer to the pool, keeping its capacity.
func (p *Pool) PutBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	p.bufs = append(p.bufs, b[:0])
}

// Decode parses any supported message from b, drawing the types a switch
// receives (Data, UIM, UNM, CLN, UIM batches, EZN) from the pool instead
// of allocating. The caller owns the result and should hand it back via
// Recycle once dispatch is complete.
func (p *Pool) Decode(b []byte) (Message, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("packet: empty buffer")
	}
	var m Message
	switch MsgType(b[0]) {
	case TypeData:
		m = p.data.get()
	case TypeUIM:
		m = p.uim.get()
	case TypeUNM:
		m = p.unm.get()
	case TypeCLN:
		m = p.cln.get()
	case TypeUIMBatch:
		m = p.batch.get()
	case TypeEZN:
		m = p.ezn.get()
	default:
		return Decode(b)
	}
	if err := m.DecodeFromBytes(b); err != nil {
		p.Recycle(m)
		return nil, err
	}
	return m, nil
}

// Recycle returns a message Decode drew from the pool to its free list;
// other types are a no-op. A batch keeps its item array for the next
// frame.
func (p *Pool) Recycle(m Message) {
	switch m := m.(type) {
	case *Data:
		p.data.put(m)
	case *UIM:
		p.uim.put(m)
	case *UNM:
		p.unm.put(m)
	case *CLN:
		p.cln.put(m)
	case *UIMBatch:
		items := m.Items[:0]
		p.batch.put(m)
		m.Items = items
	case *EZN:
		p.ezn.put(m)
	}
}
