package packet

import (
	"reflect"
	"testing"
)

func batchUIM(i int) UIM {
	return UIM{
		Flow: FlowID(100 + i), Version: uint32(2 + i), NewDistance: uint16(i),
		OldDistance: uint16(i + 1), EgressPort: 3, ChildPort: NoPort,
		FlowSizeK: uint32(10 * i), UpdateType: UpdateSingle, Role: RoleIngress,
	}
}

func TestRoundTripUIMBatch(t *testing.T) {
	in := &UIMBatch{Items: []UIM{batchUIM(0), batchUIM(1), batchUIM(2)}}
	out := &UIMBatch{}
	if err := out.DecodeFromBytes(Marshal(in)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: %+v != %+v", in, out)
	}
}

func TestDecodeDispatchesUIMBatch(t *testing.T) {
	in := &UIMBatch{Items: []UIM{batchUIM(0), batchUIM(1)}}
	m, err := Decode(Marshal(in))
	if err != nil {
		t.Fatal(err)
	}
	b, ok := m.(*UIMBatch)
	if !ok {
		t.Fatalf("Decode returned %T, want *UIMBatch", m)
	}
	if !reflect.DeepEqual(in, b) {
		t.Fatalf("decoded batch differs: %+v != %+v", in, b)
	}
}

func TestUIMBatchDecodeRejectsBadFrames(t *testing.T) {
	good := Marshal(&UIMBatch{Items: []UIM{batchUIM(0), batchUIM(1)}})
	cases := map[string][]byte{
		"empty":           {},
		"header only":     good[:batchHeader],
		"truncated item":  good[:len(good)-1],
		"trailing bytes":  append(append([]byte{}, good...), 0),
		"count mismatch":  append([]byte{byte(TypeUIMBatch), 0, 9}, good[batchHeader:]...),
		"wrong type byte": append([]byte{byte(TypeUIM)}, good[1:]...),
	}
	for name, b := range cases {
		if err := (&UIMBatch{}).DecodeFromBytes(b); err == nil {
			t.Errorf("%s: decode accepted a malformed frame", name)
		}
	}
}

func TestUIMBatchItemsAreIndependent(t *testing.T) {
	// A pooled batch decodes frame after frame into one item array: the
	// items are values, so each decode must replace every item of the
	// previous frame (none may survive past the new count) and items
	// must not alias each other.
	out := &UIMBatch{}
	if err := out.DecodeFromBytes(Marshal(&UIMBatch{Items: []UIM{batchUIM(1), batchUIM(2), batchUIM(3)}})); err != nil {
		t.Fatal(err)
	}
	if err := out.DecodeFromBytes(Marshal(&UIMBatch{Items: []UIM{batchUIM(0), batchUIM(0)}})); err != nil {
		t.Fatal(err)
	}
	if want := []UIM{batchUIM(0), batchUIM(0)}; !reflect.DeepEqual(out.Items, want) {
		t.Fatalf("second decode left %+v, want %+v", out.Items, want)
	}
	out.Items[0].Version = 99
	if out.Items[1].Version == 99 {
		t.Fatal("mutating one decoded item changed another")
	}
}

func TestUIMBatchSerializePanicsPastLimit(t *testing.T) {
	items := make([]UIM, maxBatchItems+1)
	u := batchUIM(0)
	for i := range items {
		items[i] = u
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SerializeTo accepted more items than the count field can express")
		}
	}()
	(&UIMBatch{Items: items}).SerializeTo(nil)
}
