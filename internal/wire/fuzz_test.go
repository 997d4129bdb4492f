package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecode drives the decoder with arbitrary bytes: it must never panic,
// and any message it accepts must re-encode to bytes that decode to the
// same message (canonicalisation round trip).
func FuzzDecode(f *testing.F) {
	seed := []Message{
		Open{Version: Version, BGPID: 1, NodeID: 2},
		Keepalive{},
		Notification{Code: 6, Subcode: 1},
		Update{Withdrawn: []WithdrawnRoute{{PathID: 1}}, Announced: []RouteRecord{{PathID: 2, TieBreak: -1}}},
		Update{},
		// Multi-prefix updates mixing announcements and withdrawals, the
		// shape the shared router core emits (one message per peer
		// coalescing every prefix).
		Update{
			Withdrawn: []WithdrawnRoute{{Prefix: 1, PathID: 0}, {Prefix: 2, PathID: 3}},
			Announced: []RouteRecord{
				{Prefix: 1, PathID: 1, LocalPref: 100, NextAS: 7, MED: 5, ExitPoint: 2, ExitCost: 30, NextHopID: 2001, TieBreak: -1},
				{Prefix: 2, PathID: 0, LocalPref: 100, NextAS: 9, MED: 0, ExitPoint: 0, ExitCost: 10, NextHopID: 2000, TieBreak: 4},
			},
		},
		Update{
			Withdrawn: []WithdrawnRoute{{Prefix: 0, PathID: 2}, {Prefix: 0, PathID: 1}, {Prefix: 3, PathID: 0}},
		},
		Update{
			Announced: []RouteRecord{
				{Prefix: 0, PathID: 0, TieBreak: -1},
				{Prefix: 0xffffffff, PathID: 0xffffffff, ExitPoint: 0xffffffff, ExitCost: ^uint64(0), TieBreak: -1 << 31},
			},
		},
	}
	for _, m := range seed {
		data, err := Append(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{'I', 'B', 'G', 'P', 0, 7, 4})
	// Hand-crafted UPDATEs whose declared record counts disagree with the
	// body length — truncated, oversized, and maximal lying counts. The
	// decoder must reject these without panicking or allocating from the
	// count (see TestDecodeUpdateCountVsBodyMismatch).
	f.Add(rawMessage(TypeUpdate, updateBody(4, make([]byte, withdrawnSize), 0, nil)))
	f.Add(rawMessage(TypeUpdate, updateBody(0xffff, nil, 0, nil)))
	f.Add(rawMessage(TypeUpdate, updateBody(0, nil, 0xffff, nil)))
	f.Add(rawMessage(TypeUpdate, updateBody(0, nil, 2, make([]byte, 2*routeRecordSize-1))))
	f.Add(rawMessage(TypeUpdate, updateBody(0, nil, 1, make([]byte, routeRecordSize+5))))
	f.Add(rawMessage(TypeUpdate, append(binary.BigEndian.AppendUint16(nil, 1), make([]byte, withdrawnSize)...)))
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, n, err := Decode(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("Decode consumed %d of %d bytes", n, len(data))
		}
		re, err := Append(nil, msg)
		if err != nil {
			t.Fatalf("accepted message failed to re-encode: %v", err)
		}
		msg2, _, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded message failed to decode: %v", err)
		}
		re2, err := Append(nil, msg2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatalf("encoding not canonical:\n%x\n%x", re, re2)
		}
	})
}

// FuzzReader streams arbitrary bytes through the frame reader: no panics,
// and no infinite loops on malformed framing.
func FuzzReader(f *testing.F) {
	good, _ := Append(nil, Update{Withdrawn: []WithdrawnRoute{{PathID: 9}}})
	f.Add(good)
	f.Add(append(good, good...))
	f.Add(good[:3])
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		for i := 0; i < 100; i++ {
			if _, err := r.ReadMessage(); err != nil {
				return
			}
		}
	})
}
