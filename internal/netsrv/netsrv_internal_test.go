package netsrv

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
)

// TestDeliveredReturnsZeroedBody walks one body through the remote end's
// two hooks by hand: OnTransmit builds it stamped and parks it on the
// wire list, OnDelivered wipes it and frees it at full capacity, and the
// next request — whatever its size — is built in the same storage.
func TestDeliveredReturnsZeroedBody(t *testing.T) {
	k := core.New(core.Config{Model: core.ModelInterrupt})
	defer k.Shutdown()
	sv, err := Attach(k, Config{Workers: 1, BufPages: 3})
	if err != nil {
		t.Fatal(err)
	}
	q := sv.Queues[0]
	request := func(words uint32) []byte {
		req := make([]byte, 12)
		binary.LittleEndian.PutUint32(req[0:], 0x55) // conn
		binary.LittleEndian.PutUint32(req[4:], 0x66) // seq
		binary.LittleEndian.PutUint32(req[8:], words)
		sv.NIC.OnTransmit(0, 0, req)
		if len(q.wire) != 1 || len(q.free) != 0 {
			t.Fatalf("after a request: %d bodies on the wire, %d free", len(q.wire), len(q.free))
		}
		return q.wire[0]
	}
	first := request(2*mem.PageSize/4 + 1) // stamps on all three pages
	if got := binary.LittleEndian.Uint32(first[2*mem.PageSize:]); got != ResponseStamp(0x55, 0x66, 2) {
		t.Fatalf("third page stamp %#x", got)
	}
	sv.NIC.OnDelivered(0, first)
	if len(q.wire) != 0 || len(q.free) != 1 {
		t.Fatalf("after delivery: %d bodies on the wire, %d free", len(q.wire), len(q.free))
	}
	if b := q.free[0]; len(b) != 3*mem.PageSize || !bytes.Equal(b, make([]byte, len(b))) {
		t.Fatalf("freed body is %d bytes and not all zero", len(b))
	}
	if second := request(1); len(second) != 4 || &second[0] != &first[0] {
		t.Fatal("the next request did not reuse the freed body")
	}
}
