package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// viewSeeds are the corpus shared by the differential fuzzer and the
// aliasing tests: the message shapes both substrates actually emit, plus
// the non-UPDATE types DecodeView must refuse with ErrNotUpdate.
func viewSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	msgs := []Message{
		Open{Version: Version, BGPID: 1, NodeID: 2},
		Keepalive{},
		Notification{Code: 6, Subcode: 1},
		Update{},
		Update{Withdrawn: []WithdrawnRoute{{PathID: 1}}, Announced: []RouteRecord{{PathID: 2, TieBreak: -1}}},
		Update{
			Withdrawn: []WithdrawnRoute{{Prefix: 1, PathID: 0}, {Prefix: 2, PathID: 3}},
			Announced: []RouteRecord{
				{Prefix: 1, PathID: 1, LocalPref: 100, NextAS: 7, MED: 5, ExitPoint: 2, ExitCost: 30, NextHopID: 2001, TieBreak: -1},
				{Prefix: 2, PathID: 0, LocalPref: 100, NextAS: 9, MED: 0, ExitPoint: 0, ExitCost: 10, NextHopID: 2000, TieBreak: 4},
			},
		},
		Update{
			Announced: []RouteRecord{
				{Prefix: 0, PathID: 0, TieBreak: -1},
				{Prefix: 0xffffffff, PathID: 0xffffffff, ExitPoint: 0xffffffff, ExitCost: ^uint64(0), TieBreak: -1 << 31},
			},
		},
	}
	var out [][]byte
	for _, m := range msgs {
		data, err := Append(nil, m)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

// updatesEqual compares two Updates treating nil and empty slices the same
// (Decode materialises empty sections as nil, AppendTo as zero-length).
func updatesEqual(a, b Update) bool {
	if len(a.Withdrawn) != len(b.Withdrawn) || len(a.Announced) != len(b.Announced) {
		return false
	}
	for i := range a.Withdrawn {
		if a.Withdrawn[i] != b.Withdrawn[i] {
			return false
		}
	}
	for i := range a.Announced {
		if a.Announced[i] != b.Announced[i] {
			return false
		}
	}
	return true
}

// FuzzDecodeView is the differential fuzzer for the zero-copy decode path:
// on every input, DecodeView must agree byte-for-byte with Decode — same
// accept/reject verdict, same consumed length, and a materialised view
// identical to the Update Decode builds. The two decoders share framing
// helpers, so what this pins is that the view accessors (the per-record
// offset arithmetic) can never drift from the slice-building decoder.
func FuzzDecodeView(f *testing.F) {
	for _, data := range viewSeeds(f) {
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{'I', 'B', 'G', 'P', 0, 7, 4})
	f.Add(rawMessage(TypeUpdate, updateBody(4, make([]byte, withdrawnSize), 0, nil)))
	f.Add(rawMessage(TypeUpdate, updateBody(0xffff, nil, 0, nil)))
	f.Add(rawMessage(TypeUpdate, updateBody(0, nil, 2, make([]byte, 2*routeRecordSize-1))))
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, n, err := Decode(data)
		v, vn, verr := DecodeView(data)
		if err != nil {
			// Decode rejected: the view must reject too. ErrNotUpdate is a
			// frame-level verdict — legitimate only when the frame carries a
			// known non-UPDATE type whose body Decode then refused (e.g. an
			// OPEN with a bad version); for anything else the view must
			// report the framing error itself.
			if verr == nil {
				t.Fatalf("Decode rejected (%v) but DecodeView accepted", err)
			}
			if errors.Is(verr, ErrNotUpdate) {
				typ := data[headerSize-1]
				if typ != TypeOpen && typ != TypeNotification && typ != TypeKeepalive {
					t.Fatalf("DecodeView returned ErrNotUpdate for type %d bytes Decode rejected with %v", typ, err)
				}
			}
			return
		}
		upd, isUpdate := msg.(Update)
		if !isUpdate {
			if !errors.Is(verr, ErrNotUpdate) {
				t.Fatalf("Decode accepted %T but DecodeView returned %v, want ErrNotUpdate", msg, verr)
			}
			return
		}
		if verr != nil {
			t.Fatalf("Decode accepted an UPDATE but DecodeView rejected: %v", verr)
		}
		if vn != n {
			t.Fatalf("consumed lengths disagree: Decode %d, DecodeView %d", n, vn)
		}
		if v.NumWithdrawn() != len(upd.Withdrawn) || v.NumAnnounced() != len(upd.Announced) {
			t.Fatalf("record counts disagree: view %d/%d, update %d/%d",
				v.NumWithdrawn(), v.NumAnnounced(), len(upd.Withdrawn), len(upd.Announced))
		}
		if v.Empty() != (len(upd.Withdrawn) == 0 && len(upd.Announced) == 0) {
			t.Fatalf("Empty() = %v disagrees with update %+v", v.Empty(), upd)
		}
		for i := range upd.Withdrawn {
			if v.WithdrawnAt(i) != upd.Withdrawn[i] {
				t.Fatalf("WithdrawnAt(%d) = %+v, Decode got %+v", i, v.WithdrawnAt(i), upd.Withdrawn[i])
			}
		}
		for i := range upd.Announced {
			if v.AnnouncedAt(i) != upd.Announced[i] {
				t.Fatalf("AnnouncedAt(%d) = %+v, Decode got %+v", i, v.AnnouncedAt(i), upd.Announced[i])
			}
		}
		if got := v.Update(); !updatesEqual(got, upd) {
			t.Fatalf("materialised view %+v != decoded update %+v", got, upd)
		}
	})
}

// TestViewMaterialiseDoesNotAliasBuffer is the recycled-buffer safety
// proof: once a view is materialised with AppendTo (or Update), scribbling
// over the decode buffer — what a freelist does when the bytes are reused
// for the next message — must not be observable through the materialised
// copy. This is the contract internal/msgsim's payload freelist and the
// speaker's buffer pool rely on.
func TestViewMaterialiseDoesNotAliasBuffer(t *testing.T) {
	for _, data := range viewSeeds(t) {
		v, _, err := DecodeView(data)
		if errors.Is(err, ErrNotUpdate) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		want := v.Update()
		var reused Update
		v.AppendTo(&reused)

		// Recycle the buffer: overwrite every byte, as the next
		// AppendUpdate into the pooled storage would.
		for i := range data {
			data[i] = 0xff
		}

		if !updatesEqual(reused, want) {
			t.Fatalf("AppendTo result changed when the decode buffer was recycled:\ngot  %+v\nwant %+v", reused, want)
		}
		if got := want; !reflect.DeepEqual(got, want) {
			t.Fatalf("Update() copy changed under buffer reuse: %+v", got)
		}
	}
}

// TestViewAliasesLiveBuffer pins the other half of the ownership contract:
// a LIVE view is zero-copy, so it does observe buffer mutations — which is
// exactly why consumers must finish with the view before recycling. The
// test flips a byte inside the first announced record and watches the
// accessor change, proving no hidden materialisation happens at decode
// time.
func TestViewAliasesLiveBuffer(t *testing.T) {
	u := Update{Announced: []RouteRecord{{Prefix: 3, PathID: 2, LocalPref: 100, TieBreak: -1}}}
	data, err := Append(nil, u)
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := DecodeView(data)
	if err != nil {
		t.Fatal(err)
	}
	before := v.AnnouncedAt(0)
	if before != u.Announced[0] {
		t.Fatalf("decoded record %+v != encoded %+v", before, u.Announced[0])
	}
	// The announced section starts after header, withdrawn count and
	// announced count; its first 4 bytes are the record's Prefix.
	off := headerSize + 2 + 2
	data[off+3] ^= 0x01
	after := v.AnnouncedAt(0)
	if after == before {
		t.Fatal("view did not observe a buffer mutation: views must be zero-copy")
	}
	if after.Prefix != before.Prefix^1 {
		t.Fatalf("mutated Prefix = %d, want %d", after.Prefix, before.Prefix^1)
	}
}

// TestAppendUpdateRoundTripsThroughView closes the loop the substrates
// run per hop: AppendUpdate into a reused buffer, DecodeView over the
// result, materialise — identical to the input, with the buffer storage
// reused across iterations.
func TestAppendUpdateRoundTripsThroughView(t *testing.T) {
	updates := []Update{
		{},
		{Withdrawn: []WithdrawnRoute{{Prefix: 9, PathID: 4}}},
		{Announced: []RouteRecord{{Prefix: 1, PathID: 1, LocalPref: 100, NextAS: 7, MED: 5, TieBreak: -1}}},
		{
			Withdrawn: []WithdrawnRoute{{Prefix: 0, PathID: 2}},
			Announced: []RouteRecord{{Prefix: 0, PathID: 0, TieBreak: 1}, {Prefix: 0, PathID: 3, TieBreak: 2}},
		},
	}
	buf := make([]byte, 0, 512)
	first := true
	var firstPtr *byte
	for _, u := range updates {
		out, err := AppendUpdate(buf[:0], &u)
		if err != nil {
			t.Fatal(err)
		}
		if first {
			firstPtr = &out[0]
			first = false
		} else if &out[0] != firstPtr {
			t.Fatal("AppendUpdate reallocated a buffer with sufficient capacity")
		}
		v, n, err := DecodeView(out)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(out) {
			t.Fatalf("view consumed %d of %d bytes", n, len(out))
		}
		if got := v.Update(); !updatesEqual(got, u) {
			t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, u)
		}
		if !bytes.Equal(out, mustEncode(t, u)) {
			t.Fatal("AppendUpdate bytes differ from Append bytes")
		}
		buf = out
	}
}

func mustEncode(t *testing.T, u Update) []byte {
	t.Helper()
	data, err := Append(nil, u)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
