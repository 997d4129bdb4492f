// Package wire defines a compact BGP-flavoured wire protocol for the TCP
// speakers of package speaker. The format follows BGP-4's framing idea —
// a fixed header carrying a marker, a length and a message type — with an
// UPDATE body specialised to the paper's single-destination model: a list
// of withdrawn exit-path identifiers plus a list of announced exit paths
// with their full selection attributes.
//
// The UPDATE carries whole route records (not just identifiers) so that a
// receiving speaker never needs out-of-band knowledge of the sender's
// routes, and it carries *multiple* routes per message because the paper's
// modified protocol advertises the full MED-survivor set.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/bgp"
)

// Message types, numbered as in BGP-4.
const (
	TypeOpen         = 1
	TypeUpdate       = 2
	TypeNotification = 3
	TypeKeepalive    = 4
)

// Marker opens every message, standing in for BGP's all-ones marker.
var Marker = [4]byte{'I', 'B', 'G', 'P'}

// MaxMessageSize bounds a serialised message (BGP-4 uses 4096).
const MaxMessageSize = 65535

// headerSize is marker + length (uint16) + type (uint8).
const headerSize = 4 + 2 + 1

// Version is the protocol version carried in OPEN.
const Version = 1

// Errors returned by the decoder.
var (
	ErrBadMarker  = errors.New("wire: bad marker")
	ErrBadLength  = errors.New("wire: bad length")
	ErrBadType    = errors.New("wire: unknown message type")
	ErrTruncated  = errors.New("wire: truncated message body")
	ErrBadVersion = errors.New("wire: unsupported version")
)

// Open is the session-establishment message.
type Open struct {
	Version uint8
	// BGPID is the speaker's BGP identifier (tie-break value).
	BGPID uint32
	// NodeID is the speaker's node index within the shared topology.
	NodeID uint32
}

// RouteRecord is one announced route inside an Update, carrying the
// destination prefix it belongs to and every attribute the selection
// procedure reads. Single-prefix deployments use Prefix 0 throughout.
type RouteRecord struct {
	Prefix    uint32
	PathID    uint32
	LocalPref uint32
	ASPathLen uint16
	NextAS    uint32
	MED       uint32
	ExitPoint uint32
	ExitCost  uint64
	NextHopID uint32
	TieBreak  int32
}

// FromExitPath converts a model exit path into its wire record.
func FromExitPath(p bgp.ExitPath) RouteRecord {
	return RouteRecord{
		PathID:    uint32(p.ID),
		LocalPref: uint32(p.LocalPref),
		ASPathLen: uint16(p.ASPathLen),
		NextAS:    uint32(p.NextAS),
		MED:       uint32(p.MED),
		ExitPoint: uint32(p.ExitPoint),
		ExitCost:  uint64(p.ExitCost),
		NextHopID: uint32(p.NextHopID),
		TieBreak:  int32(p.TieBreak),
	}
}

// ExitPath converts the record back into the model type.
func (r RouteRecord) ExitPath() bgp.ExitPath {
	return bgp.ExitPath{
		ID:        bgp.PathID(r.PathID),
		LocalPref: int(r.LocalPref),
		ASPathLen: int(r.ASPathLen),
		NextAS:    bgp.ASN(r.NextAS),
		MED:       int(r.MED),
		ExitPoint: bgp.NodeID(r.ExitPoint),
		ExitCost:  int64(r.ExitCost),
		NextHopID: int(r.NextHopID),
		TieBreak:  int(r.TieBreak),
	}
}

const routeRecordSize = 4 + 4 + 4 + 2 + 4 + 4 + 4 + 8 + 4 + 4

// WithdrawnRoute identifies one withdrawn route by prefix and path.
type WithdrawnRoute struct {
	Prefix uint32
	PathID uint32
}

const withdrawnSize = 8

// Update announces and withdraws routes, possibly for several prefixes.
type Update struct {
	Withdrawn []WithdrawnRoute
	Announced []RouteRecord
}

// Notification reports a protocol error before session teardown.
type Notification struct {
	Code    uint8
	Subcode uint8
}

// Keepalive is the empty liveness message.
type Keepalive struct{}

// Message is one of Open, Update, Notification, Keepalive.
type Message interface{ wireType() byte }

func (Open) wireType() byte         { return TypeOpen }
func (Update) wireType() byte       { return TypeUpdate }
func (Notification) wireType() byte { return TypeNotification }
func (Keepalive) wireType() byte    { return TypeKeepalive }

// appendHeader writes the fixed message header for a body of bodyLen bytes.
func appendHeader(buf []byte, typ byte, bodyLen int) []byte {
	buf = append(buf, Marker[:]...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(headerSize+bodyLen))
	return append(buf, typ)
}

// Append serialises msg onto buf and returns the extended slice. It writes
// directly into buf — no intermediate body buffer — so a caller that reuses
// its buffer (buf[:0]) pays no allocation once the buffer has grown to the
// message size. UPDATE senders on hot paths should call AppendUpdate, which
// also avoids boxing the message into the Message interface.
func Append(buf []byte, msg Message) ([]byte, error) {
	switch m := msg.(type) {
	case Open:
		buf = appendHeader(buf, TypeOpen, 9)
		buf = append(buf, m.Version)
		buf = binary.BigEndian.AppendUint32(buf, m.BGPID)
		return binary.BigEndian.AppendUint32(buf, m.NodeID), nil
	case Update:
		return AppendUpdate(buf, &m)
	case Notification:
		return append(appendHeader(buf, TypeNotification, 2), m.Code, m.Subcode), nil
	case Keepalive:
		return appendHeader(buf, TypeKeepalive, 0), nil
	default:
		return nil, fmt.Errorf("wire: unsupported message %T", msg)
	}
}

// AppendUpdate serialises one UPDATE onto buf and returns the extended
// slice. This is the pooled-encode entry point of the zero-alloc wire path:
// unlike Append it takes the update by pointer (no interface boxing) and,
// like Append, writes straight into buf.
func AppendUpdate(buf []byte, m *Update) ([]byte, error) {
	if len(m.Withdrawn) > 0xffff || len(m.Announced) > 0xffff {
		return nil, ErrBadLength
	}
	bodyLen := 4 + withdrawnSize*len(m.Withdrawn) + routeRecordSize*len(m.Announced)
	if headerSize+bodyLen > MaxMessageSize {
		return nil, ErrBadLength
	}
	buf = appendHeader(buf, TypeUpdate, bodyLen)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Withdrawn)))
	for _, wd := range m.Withdrawn {
		buf = binary.BigEndian.AppendUint32(buf, wd.Prefix)
		buf = binary.BigEndian.AppendUint32(buf, wd.PathID)
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Announced)))
	for _, r := range m.Announced {
		buf = binary.BigEndian.AppendUint32(buf, r.Prefix)
		buf = binary.BigEndian.AppendUint32(buf, r.PathID)
		buf = binary.BigEndian.AppendUint32(buf, r.LocalPref)
		buf = binary.BigEndian.AppendUint16(buf, r.ASPathLen)
		buf = binary.BigEndian.AppendUint32(buf, r.NextAS)
		buf = binary.BigEndian.AppendUint32(buf, r.MED)
		buf = binary.BigEndian.AppendUint32(buf, r.ExitPoint)
		buf = binary.BigEndian.AppendUint64(buf, r.ExitCost)
		buf = binary.BigEndian.AppendUint32(buf, r.NextHopID)
		buf = binary.BigEndian.AppendUint32(buf, uint32(r.TieBreak))
	}
	return buf, nil
}

// frame validates the fixed header and returns the message type, body
// bytes and total framed length. Shared by Decode and DecodeView so both
// enforce identical bounds.
func frame(data []byte) (typ byte, body []byte, total int, err error) {
	if len(data) < headerSize {
		return 0, nil, 0, ErrTruncated
	}
	for i := range Marker {
		if data[i] != Marker[i] {
			return 0, nil, 0, ErrBadMarker
		}
	}
	total = int(binary.BigEndian.Uint16(data[4:6]))
	if total < headerSize {
		return 0, nil, 0, ErrBadLength
	}
	if len(data) < total {
		return 0, nil, 0, ErrTruncated
	}
	return data[6], data[headerSize:total], total, nil
}

// splitUpdateBody validates an UPDATE body's declared counts against its
// length and returns the raw withdrawn and announced byte regions. This is
// the one validation both the materialising decoder and the zero-copy view
// rely on: after it succeeds, every fixed-size record access is in bounds.
func splitUpdateBody(body []byte) (withdrawn, announced []byte, err error) {
	if len(body) < 2 {
		return nil, nil, ErrBadLength
	}
	nw := int(binary.BigEndian.Uint16(body[:2]))
	body = body[2:]
	if len(body) < withdrawnSize*nw {
		return nil, nil, ErrBadLength
	}
	withdrawn = body[:withdrawnSize*nw]
	body = body[withdrawnSize*nw:]
	if len(body) < 2 {
		return nil, nil, ErrBadLength
	}
	na := int(binary.BigEndian.Uint16(body[:2]))
	body = body[2:]
	if len(body) != na*routeRecordSize {
		return nil, nil, ErrBadLength
	}
	return withdrawn, body, nil
}

// decodeWithdrawn reads one withdrawn-route record at the start of b.
func decodeWithdrawn(b []byte) WithdrawnRoute {
	return WithdrawnRoute{
		Prefix: binary.BigEndian.Uint32(b[0:4]),
		PathID: binary.BigEndian.Uint32(b[4:8]),
	}
}

// decodeRecord reads one announced-route record at the start of b.
func decodeRecord(b []byte) RouteRecord {
	return RouteRecord{
		Prefix:    binary.BigEndian.Uint32(b[0:4]),
		PathID:    binary.BigEndian.Uint32(b[4:8]),
		LocalPref: binary.BigEndian.Uint32(b[8:12]),
		ASPathLen: binary.BigEndian.Uint16(b[12:14]),
		NextAS:    binary.BigEndian.Uint32(b[14:18]),
		MED:       binary.BigEndian.Uint32(b[18:22]),
		ExitPoint: binary.BigEndian.Uint32(b[22:26]),
		ExitCost:  binary.BigEndian.Uint64(b[26:34]),
		NextHopID: binary.BigEndian.Uint32(b[34:38]),
		TieBreak:  int32(binary.BigEndian.Uint32(b[38:42])),
	}
}

// Decode parses one message from data and returns it along with the number
// of bytes consumed. It never panics on malformed input.
func Decode(data []byte) (Message, int, error) {
	typ, body, total, err := frame(data)
	if err != nil {
		return nil, 0, err
	}
	switch typ {
	case TypeOpen:
		if len(body) != 9 {
			return nil, 0, ErrBadLength
		}
		m := Open{
			Version: body[0],
			BGPID:   binary.BigEndian.Uint32(body[1:5]),
			NodeID:  binary.BigEndian.Uint32(body[5:9]),
		}
		if m.Version != Version {
			return nil, 0, ErrBadVersion
		}
		return m, total, nil
	case TypeUpdate:
		wd, ann, err := splitUpdateBody(body)
		if err != nil {
			return nil, 0, err
		}
		// The declared counts were validated against the body length, so the
		// slices pre-size exactly instead of append-growing from nil.
		m := Update{}
		if nw := len(wd) / withdrawnSize; nw > 0 {
			m.Withdrawn = make([]WithdrawnRoute, nw)
			for i := range m.Withdrawn {
				m.Withdrawn[i] = decodeWithdrawn(wd[withdrawnSize*i:])
			}
		}
		if na := len(ann) / routeRecordSize; na > 0 {
			m.Announced = make([]RouteRecord, na)
			for i := range m.Announced {
				m.Announced[i] = decodeRecord(ann[routeRecordSize*i:])
			}
		}
		return m, total, nil
	case TypeNotification:
		if len(body) != 2 {
			return nil, 0, ErrBadLength
		}
		return Notification{Code: body[0], Subcode: body[1]}, total, nil
	case TypeKeepalive:
		if len(body) != 0 {
			return nil, 0, ErrBadLength
		}
		return Keepalive{}, total, nil
	default:
		return nil, 0, ErrBadType
	}
}

// ErrNotUpdate is returned by DecodeView for a well-framed message of any
// type other than UPDATE; callers needing those fall back to Decode.
var ErrNotUpdate = errors.New("wire: not an UPDATE message")

// UpdateView is a zero-copy read view over one framed UPDATE. The framing
// and the declared counts are validated once by DecodeView; after that the
// accessors index straight into the payload bytes, so iterating a view
// materialises no []WithdrawnRoute / []RouteRecord slices.
//
// A view ALIASES the buffer it was decoded from and is only valid while the
// receiver owns those bytes: a transport that recycles its receive buffers
// must finish consuming the view (or materialise it with AppendTo) before
// handing the buffer back to its pool. Views are values; copying one copies
// the aliasing, never the bytes.
type UpdateView struct {
	withdrawn []byte // NumWithdrawn() * withdrawnSize bytes
	announced []byte // NumAnnounced() * routeRecordSize bytes
}

// DecodeView parses one UPDATE from data without materialising it and
// returns the view along with the number of bytes consumed. Framing and
// count validation are exactly Decode's; a well-framed message of another
// type returns ErrNotUpdate.
func DecodeView(data []byte) (UpdateView, int, error) {
	typ, body, total, err := frame(data)
	if err != nil {
		return UpdateView{}, 0, err
	}
	switch typ {
	case TypeUpdate:
	case TypeOpen, TypeNotification, TypeKeepalive:
		return UpdateView{}, 0, ErrNotUpdate
	default:
		return UpdateView{}, 0, ErrBadType
	}
	wd, ann, err := splitUpdateBody(body)
	if err != nil {
		return UpdateView{}, 0, err
	}
	return UpdateView{withdrawn: wd, announced: ann}, total, nil
}

// NumWithdrawn returns the number of withdrawn routes in the view.
func (v UpdateView) NumWithdrawn() int { return len(v.withdrawn) / withdrawnSize }

// NumAnnounced returns the number of announced routes in the view.
func (v UpdateView) NumAnnounced() int { return len(v.announced) / routeRecordSize }

// WithdrawnAt decodes the i-th withdrawn route. i must be in
// [0, NumWithdrawn()); out-of-range panics like a slice index.
func (v UpdateView) WithdrawnAt(i int) WithdrawnRoute {
	return decodeWithdrawn(v.withdrawn[withdrawnSize*i : withdrawnSize*(i+1)])
}

// AnnouncedAt decodes the i-th announced route. i must be in
// [0, NumAnnounced()); out-of-range panics like a slice index.
func (v UpdateView) AnnouncedAt(i int) RouteRecord {
	return decodeRecord(v.announced[routeRecordSize*i : routeRecordSize*(i+1)])
}

// Validate bound-checks every record of the view against the per-prefix
// system returned by lookup, with the same rules (and the same error text)
// as Update.Validate, without materialising anything.
func (v UpdateView) Validate(lookup func(prefix uint32) System) error {
	for i, n := 0, v.NumWithdrawn(); i < n; i++ {
		wd := v.WithdrawnAt(i)
		sys := lookup(wd.Prefix)
		if sys == nil {
			return fmt.Errorf("wire: withdrawal for unknown prefix %d", wd.Prefix)
		}
		if int(wd.PathID) >= sys.NumExits() {
			return fmt.Errorf("wire: withdrawal for prefix %d: path p%d outside topology (%d exits)",
				wd.Prefix, wd.PathID, sys.NumExits())
		}
	}
	for i, n := 0, v.NumAnnounced(); i < n; i++ {
		rec := v.AnnouncedAt(i)
		sys := lookup(rec.Prefix)
		if sys == nil {
			return fmt.Errorf("wire: record for unknown prefix %d", rec.Prefix)
		}
		if err := rec.Validate(sys); err != nil {
			return err
		}
	}
	return nil
}

// AppendTo materialises the view into u, reusing u's slice storage — the
// allocation-free way to keep an update past the lifetime of the view's
// buffer. The result does not alias the buffer.
func (v UpdateView) AppendTo(u *Update) {
	u.Withdrawn = u.Withdrawn[:0]
	u.Announced = u.Announced[:0]
	for i, n := 0, v.NumWithdrawn(); i < n; i++ {
		u.Withdrawn = append(u.Withdrawn, v.WithdrawnAt(i))
	}
	for i, n := 0, v.NumAnnounced(); i < n; i++ {
		u.Announced = append(u.Announced, v.AnnouncedAt(i))
	}
}

// Update materialises the view into a fresh Update.
func (v UpdateView) Update() Update {
	var u Update
	v.AppendTo(&u)
	return u
}

// System is the subset of a topology that decode-side validation reads;
// *topology.System satisfies it. Validation is optional — a decoder
// without out-of-band topology knowledge simply never calls Validate.
type System interface {
	// N is the number of routers.
	N() int
	// NumExits is the number of exit paths.
	NumExits() int
}

// Validate bound-checks one announced record against sys: the PathID must
// name an exit path of the topology and the ExitPoint must name a router.
// NextHopID and TieBreak are BGP-identifier-valued, not node indices, so
// they carry no topological bound.
func (r RouteRecord) Validate(sys System) error {
	if int(r.PathID) >= sys.NumExits() {
		return fmt.Errorf("wire: record for prefix %d: path p%d outside topology (%d exits)",
			r.Prefix, r.PathID, sys.NumExits())
	}
	if int(r.ExitPoint) >= sys.N() {
		return fmt.Errorf("wire: record for prefix %d: exit point %d outside topology (%d routers)",
			r.Prefix, r.ExitPoint, sys.N())
	}
	return nil
}

// Validate bound-checks every record of the update against the per-prefix
// system returned by lookup; lookup returning nil marks an unknown prefix.
// The first violation is returned and the update should be dropped whole.
func (u *Update) Validate(lookup func(prefix uint32) System) error {
	for _, wd := range u.Withdrawn {
		sys := lookup(wd.Prefix)
		if sys == nil {
			return fmt.Errorf("wire: withdrawal for unknown prefix %d", wd.Prefix)
		}
		if int(wd.PathID) >= sys.NumExits() {
			return fmt.Errorf("wire: withdrawal for prefix %d: path p%d outside topology (%d exits)",
				wd.Prefix, wd.PathID, sys.NumExits())
		}
	}
	for _, rec := range u.Announced {
		sys := lookup(rec.Prefix)
		if sys == nil {
			return fmt.Errorf("wire: record for unknown prefix %d", rec.Prefix)
		}
		if err := rec.Validate(sys); err != nil {
			return err
		}
	}
	return nil
}

// Writer frames messages onto an io.Writer.
type Writer struct {
	w   io.Writer
	buf []byte
}

// NewWriter returns a message writer over w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// WriteMessage serialises and writes one message.
func (w *Writer) WriteMessage(msg Message) error {
	var err error
	w.buf, err = Append(w.buf[:0], msg)
	if err != nil {
		return err
	}
	_, err = w.w.Write(w.buf)
	return err
}

// Reader deframes messages from an io.Reader.
type Reader struct {
	r   io.Reader
	hdr [headerSize]byte
	buf []byte
}

// NewReader returns a message reader over r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// ReadMessage reads exactly one message, blocking as needed. It returns
// io.EOF cleanly only when the stream ends between messages; a stream cut
// anywhere inside a frame — even exactly on the header/body boundary — is
// ErrTruncated, so callers never mistake a severed frame for a clean
// close. The marker is validated before the declared length is trusted:
// mid-stream garbage fails as ErrBadMarker instead of triggering a bogus
// up-to-64KiB body read.
func (r *Reader) ReadMessage() (Message, error) {
	if _, err := io.ReadFull(r.r, r.hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, ErrTruncated
		}
		return nil, err
	}
	for i := range Marker {
		if r.hdr[i] != Marker[i] {
			return nil, ErrBadMarker
		}
	}
	total := int(binary.BigEndian.Uint16(r.hdr[4:6]))
	if total < headerSize {
		return nil, ErrBadLength
	}
	if cap(r.buf) < total {
		r.buf = make([]byte, total)
	}
	buf := r.buf[:total]
	copy(buf, r.hdr[:])
	if _, err := io.ReadFull(r.r, buf[headerSize:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
			return nil, ErrTruncated
		}
		return nil, err
	}
	msg, _, err := Decode(buf)
	return msg, err
}
