package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/bgp"
)

func roundTrip(t *testing.T, msg Message) Message {
	t.Helper()
	data, err := Append(nil, msg)
	if err != nil {
		t.Fatalf("Append(%+v): %v", msg, err)
	}
	got, n, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if n != len(data) {
		t.Fatalf("Decode consumed %d of %d bytes", n, len(data))
	}
	return got
}

func TestOpenRoundTrip(t *testing.T) {
	in := Open{Version: Version, BGPID: 123456, NodeID: 7}
	out := roundTrip(t, in)
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: %+v != %+v", in, out)
	}
}

func TestKeepaliveAndNotificationRoundTrip(t *testing.T) {
	if _, ok := roundTrip(t, Keepalive{}).(Keepalive); !ok {
		t.Fatal("keepalive type lost")
	}
	in := Notification{Code: 6, Subcode: 2}
	if out := roundTrip(t, in); !reflect.DeepEqual(in, out) {
		t.Fatalf("notification: %+v", out)
	}
}

func TestUpdateRoundTrip(t *testing.T) {
	in := Update{
		Withdrawn: []WithdrawnRoute{{Prefix: 0, PathID: 3}, {Prefix: 7, PathID: 9}},
		Announced: []RouteRecord{
			{Prefix: 4, PathID: 1, LocalPref: 100, ASPathLen: 2, NextAS: 7, MED: 5, ExitPoint: 3, ExitCost: 11, NextHopID: 2001, TieBreak: -1},
			{PathID: 2, LocalPref: 90, ASPathLen: 1, NextAS: 8, MED: 0, ExitPoint: 4, ExitCost: 0, NextHopID: 2002, TieBreak: 77},
		},
	}
	out := roundTrip(t, in).(Update)
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("update round trip:\n in=%+v\nout=%+v", in, out)
	}
}

func TestEmptyUpdateRoundTrip(t *testing.T) {
	out := roundTrip(t, Update{}).(Update)
	if len(out.Withdrawn) != 0 || len(out.Announced) != 0 {
		t.Fatalf("empty update grew: %+v", out)
	}
}

func TestExitPathConversion(t *testing.T) {
	p := bgp.ExitPath{
		ID: 5, LocalPref: 200, ASPathLen: 3, NextAS: 42, MED: 9,
		ExitPoint: 2, ExitCost: 17, NextHopID: 2100, TieBreak: -1,
	}
	back := FromExitPath(p).ExitPath()
	if !reflect.DeepEqual(p, back) {
		t.Fatalf("exit path conversion: %+v != %+v", p, back)
	}
}

func TestDecodeErrors(t *testing.T) {
	good, _ := Append(nil, Keepalive{})

	t.Run("short input", func(t *testing.T) {
		if _, _, err := Decode(good[:3]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("bad marker", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] = 'X'
		if _, _, err := Decode(bad); !errors.Is(err, ErrBadMarker) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("bad type", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[6] = 99
		if _, _, err := Decode(bad); !errors.Is(err, ErrBadType) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("length too small", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[4], bad[5] = 0, 1
		if _, _, err := Decode(bad); !errors.Is(err, ErrBadLength) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("body truncated", func(t *testing.T) {
		data, _ := Append(nil, Open{Version: Version, BGPID: 1, NodeID: 1})
		if _, _, err := Decode(data[:len(data)-2]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		data, _ := Append(nil, Open{Version: Version, BGPID: 1, NodeID: 1})
		data[headerSize] = Version + 1
		if _, _, err := Decode(data); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("keepalive with body", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad = append(bad, 0)
		bad[4], bad[5] = 0, byte(len(bad))
		if _, _, err := Decode(bad); !errors.Is(err, ErrBadLength) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("update body garbage", func(t *testing.T) {
		data, _ := Append(nil, Update{Withdrawn: []WithdrawnRoute{{PathID: 1}}})
		data = data[:len(data)-1]
		data[4], data[5] = 0, byte(len(data))
		if _, _, err := Decode(data); err == nil {
			t.Fatal("mangled update accepted")
		}
	})
}

func TestDecodeNeverPanicsOnRandomBytes(t *testing.T) {
	check := func(seed int64) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, rng.Intn(200))
		rng.Read(data)
		// Half the time, start from a valid marker to get deeper.
		if rng.Intn(2) == 0 && len(data) >= 4 {
			copy(data, Marker[:])
		}
		Decode(data)
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUpdateRoundTrip(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := Update{}
		for i := rng.Intn(5); i > 0; i-- {
			in.Withdrawn = append(in.Withdrawn, WithdrawnRoute{Prefix: rng.Uint32(), PathID: rng.Uint32()})
		}
		for i := rng.Intn(5); i > 0; i-- {
			in.Announced = append(in.Announced, RouteRecord{
				Prefix:    rng.Uint32(),
				PathID:    rng.Uint32(),
				LocalPref: rng.Uint32(),
				ASPathLen: uint16(rng.Intn(1 << 16)),
				NextAS:    rng.Uint32(),
				MED:       rng.Uint32(),
				ExitPoint: rng.Uint32(),
				ExitCost:  rng.Uint64(),
				NextHopID: rng.Uint32(),
				TieBreak:  int32(rng.Uint32()),
			})
		}
		data, err := Append(nil, in)
		if err != nil {
			return false
		}
		out, n, err := Decode(data)
		if err != nil || n != len(data) {
			return false
		}
		ou := out.(Update)
		if len(ou.Withdrawn) != len(in.Withdrawn) || len(ou.Announced) != len(in.Announced) {
			return false
		}
		for i := range in.Withdrawn {
			if ou.Withdrawn[i] != in.Withdrawn[i] {
				return false
			}
		}
		for i := range in.Announced {
			if ou.Announced[i] != in.Announced[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestReaderWriterStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	msgs := []Message{
		Open{Version: Version, BGPID: 9, NodeID: 2},
		Update{Withdrawn: []WithdrawnRoute{{PathID: 1}}},
		Keepalive{},
		Update{Announced: []RouteRecord{{PathID: 4, TieBreak: -1}}},
		Notification{Code: 6},
	}
	for _, m := range msgs {
		if err := w.WriteMessage(m); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(&buf)
	for i, want := range msgs {
		got, err := r.ReadMessage()
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("message %d: %+v != %+v", i, got, want)
		}
	}
	if _, err := r.ReadMessage(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestReaderTruncatedStream(t *testing.T) {
	data, _ := Append(nil, Open{Version: Version, BGPID: 1, NodeID: 1})
	r := NewReader(bytes.NewReader(data[:len(data)-3]))
	if _, err := r.ReadMessage(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v", err)
	}
}

func TestAppendReusesBuffer(t *testing.T) {
	buf := make([]byte, 0, 256)
	out, err := Append(buf, Keepalive{})
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &buf[:1][0] {
		t.Fatal("Append reallocated despite spare capacity")
	}
}

func TestOversizeUpdateRejected(t *testing.T) {
	u := Update{}
	for i := 0; i < 3000; i++ {
		u.Announced = append(u.Announced, RouteRecord{PathID: uint32(i)})
	}
	if _, err := Append(nil, u); !errors.Is(err, ErrBadLength) {
		t.Fatalf("oversize update: err = %v", err)
	}
}

// fakeSystem is a minimal System for validation tests.
type fakeSystem struct{ n, exits int }

func (f fakeSystem) N() int        { return f.n }
func (f fakeSystem) NumExits() int { return f.exits }

func TestRouteRecordValidate(t *testing.T) {
	sys := fakeSystem{n: 4, exits: 3}
	good := RouteRecord{PathID: 2, ExitPoint: 3, NextHopID: 2007, TieBreak: -1}
	if err := good.Validate(sys); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	if err := (RouteRecord{PathID: 3, ExitPoint: 0}).Validate(sys); err == nil {
		t.Fatal("PathID == NumExits accepted")
	}
	if err := (RouteRecord{PathID: 0, ExitPoint: 4}).Validate(sys); err == nil {
		t.Fatal("ExitPoint == N accepted")
	}
}

func TestUpdateValidate(t *testing.T) {
	systems := map[uint32]System{
		0: fakeSystem{n: 4, exits: 3},
		7: fakeSystem{n: 4, exits: 1},
	}
	lookup := func(prefix uint32) System { return systems[prefix] }

	ok := &Update{
		Withdrawn: []WithdrawnRoute{{Prefix: 0, PathID: 2}, {Prefix: 7, PathID: 0}},
		Announced: []RouteRecord{{Prefix: 0, PathID: 0, ExitPoint: 1}},
	}
	if err := ok.Validate(lookup); err != nil {
		t.Fatalf("valid update rejected: %v", err)
	}
	cases := []*Update{
		{Withdrawn: []WithdrawnRoute{{Prefix: 1, PathID: 0}}},             // unknown prefix
		{Announced: []RouteRecord{{Prefix: 1, PathID: 0}}},                // unknown prefix
		{Withdrawn: []WithdrawnRoute{{Prefix: 7, PathID: 1}}},             // path out of bounds
		{Announced: []RouteRecord{{Prefix: 7, PathID: 0, ExitPoint: 99}}}, // exit point out of bounds
		{Announced: []RouteRecord{{Prefix: 0, PathID: 17, ExitPoint: 0}}}, // path out of bounds
	}
	for i, u := range cases {
		if err := u.Validate(lookup); err == nil {
			t.Fatalf("case %d accepted: %+v", i, u)
		}
	}
	if err := ok.Validate(func(uint32) System { return systems[0] }); err != nil {
		t.Fatalf("Validate with a constant lookup rejected prefix-bounded update: %v", err)
	}
}
