package packet

import (
	"encoding/binary"
	"fmt"
)

// TypeUIMBatch identifies a batched-indication frame.
const TypeUIMBatch MsgType = 19

// UIMBatch coalesces several Update Indication Messages addressed to
// the same switch into one control-channel frame. Reroute waves under
// streaming churn trigger hundreds of updates in the same virtual
// instant; batching amortizes the per-message marshal and scheduling
// cost without changing delivery timing (the frame leaves and arrives
// exactly when the individual UIMs would have, in the same relative
// order). The receiving switch unpacks and dispatches each item as if
// it had arrived alone.
type UIMBatch struct {
	Items []UIM
}

// batchHeader is the frame prefix: type byte + uint16 item count.
const batchHeader = 3

// maxBatchItems bounds one frame's item count to what the uint16 count
// field can express.
const maxBatchItems = 0xffff

// Type implements Message.
func (m *UIMBatch) Type() MsgType { return TypeUIMBatch }

// SerializeTo implements Message.
func (m *UIMBatch) SerializeTo(b []byte) []byte {
	if len(m.Items) > maxBatchItems {
		panic(fmt.Sprintf("packet: UIMBatch with %d items exceeds the frame limit", len(m.Items)))
	}
	var hdr [batchHeader]byte
	hdr[0] = byte(TypeUIMBatch)
	binary.BigEndian.PutUint16(hdr[1:3], uint16(len(m.Items)))
	b = append(b, hdr[:]...)
	for i := range m.Items {
		b = m.Items[i].SerializeTo(b)
	}
	return b
}

// DecodeFromBytes implements Message. Items are decoded by value into
// the batch's own item array, reusing its capacity, so a pooled batch
// decodes a frame without allocating.
func (m *UIMBatch) DecodeFromBytes(b []byte) error {
	if len(b) < batchHeader {
		return fmt.Errorf("packet: UIMBatch frame is %d bytes, want >= %d", len(b), batchHeader)
	}
	if MsgType(b[0]) != TypeUIMBatch {
		return fmt.Errorf("packet: type byte %d, want %v", b[0], TypeUIMBatch)
	}
	n := int(binary.BigEndian.Uint16(b[1:3]))
	if len(b) != batchHeader+n*uimSize {
		return fmt.Errorf("packet: UIMBatch frame is %d bytes, want %d for %d items",
			len(b), batchHeader+n*uimSize, n)
	}
	m.Items = append(m.Items[:0], make([]UIM, n)...)
	for i := range m.Items {
		off := batchHeader + i*uimSize
		if err := m.Items[i].DecodeFromBytes(b[off : off+uimSize]); err != nil {
			return err
		}
	}
	return nil
}
