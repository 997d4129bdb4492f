package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// TestReaderErrorPaths is the regression suite for the stream deframer's
// failure modes: each corruption must come back as the concrete sentinel
// error — never a partial message, never a clean EOF masking a cut-off
// frame — because the speaker's readLoop classifies teardown causes (clean
// close vs corrupt frame) from exactly these errors.
func TestReaderErrorPaths(t *testing.T) {
	valid := func() []byte {
		data, err := Append(nil, Update{Announced: []RouteRecord{{Prefix: 1, PathID: 2, LocalPref: 100}}})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}()

	cases := []struct {
		name   string
		stream []byte
		want   error
	}{
		{"empty stream is clean EOF", nil, io.EOF},
		{"truncated header", valid[:3], ErrTruncated},
		{"header cut at last octet", valid[:headerSize-1], ErrTruncated},
		{"truncated body", valid[:len(valid)-1], ErrTruncated},
		{"body cut right after header", valid[:headerSize], ErrTruncated},
		{"declared length below header size", func() []byte {
			d := append([]byte(nil), valid...)
			binary.BigEndian.PutUint16(d[4:6], headerSize-1)
			return d
		}(), ErrBadLength},
		{"declared length past stream end", func() []byte {
			d := append([]byte(nil), valid...)
			binary.BigEndian.PutUint16(d[4:6], uint16(len(valid)+100))
			return d
		}(), ErrTruncated},
		{"garbage marker", func() []byte {
			d := append([]byte(nil), valid...)
			d[0] ^= 0xFF
			return d
		}(), ErrBadMarker},
		{"unknown message type", func() []byte {
			d := append([]byte(nil), valid...)
			d[6] = 0xEE
			return d
		}(), ErrBadType},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(bytes.NewReader(tc.stream))
			msg, err := r.ReadMessage()
			if !errors.Is(err, tc.want) {
				t.Fatalf("ReadMessage = (%v, %v), want %v", msg, err, tc.want)
			}
			if msg != nil {
				t.Fatalf("partial message returned alongside %v: %+v", err, msg)
			}
		})
	}
}

// TestReaderGarbageAfterValidMessage: a good frame followed by mid-stream
// garbage must deliver the good frame first, then fail with ErrBadMarker —
// the reader must not resynchronize silently.
func TestReaderGarbageAfterValidMessage(t *testing.T) {
	data, err := Append(nil, Keepalive{})
	if err != nil {
		t.Fatal(err)
	}
	stream := append(append([]byte(nil), data...), []byte("garbage-bytes")...)
	r := NewReader(bytes.NewReader(stream))
	msg, err := r.ReadMessage()
	if err != nil {
		t.Fatalf("first message: %v", err)
	}
	if _, ok := msg.(Keepalive); !ok {
		t.Fatalf("first message type %T", msg)
	}
	if msg, err := r.ReadMessage(); !errors.Is(err, ErrBadMarker) || msg != nil {
		t.Fatalf("second read = (%v, %v), want ErrBadMarker and no message", msg, err)
	}
}
