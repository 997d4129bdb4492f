package speaker

import (
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/bgp"
	"repro/internal/wire"
	"repro/internal/wire/bgp4"
)

// LocalAS is the autonomous system number of the one AS every network of
// speakers models (the paper's setting is a single AS running I-BGP). It
// is in the RFC 6996 private range so a bgp4-codec speaker can face real
// stacks without squatting on an allocated number.
const LocalAS = 64512

// SessionInfo is everything a codec needs to run one session: the local
// speaker's identity, the hold policy, and the callbacks that tie
// wire-level mechanisms (originator stamping, loop detection) back to the
// network.
type SessionInfo struct {
	// LocalNode is the speaker's node index, PeerNode the peer this end
	// was brought up to talk to.
	LocalNode, PeerNode bgp.NodeID

	// LocalBGPID is the speaker's BGP identifier, which it also stamps as
	// its RFC 4456 cluster ID when reflecting.
	LocalBGPID uint32

	// HoldTime is the locally proposed hold time (0 disables keepalives
	// and the hold timer). Codecs without a liveness protocol ignore it.
	HoldTime time.Duration

	// BGPIDOf resolves a node index to its BGP identifier.
	BGPIDOf func(bgp.NodeID) (uint32, bool)

	// OnLoop is called once per announced route dropped by reflection
	// loop detection, from the session's read goroutine. May be nil.
	OnLoop func(prefix, path uint32)
}

// Codec selects a wire format for the network's sessions. Both codecs
// carry the identical logical messages, so the router cores — and
// therefore the typed-event streams, counters and chosen routes — cannot
// tell them apart; only the bytes on the loopback differ.
type Codec interface {
	Name() string
	// NewSession returns the per-session state for one connection. Called
	// once per session end, before Handshake.
	NewSession(info SessionInfo) SessionCodec
}

// SessionCodec frames and parses one session's byte stream.
type SessionCodec interface {
	// Handshake performs the codec's session establishment on conn and
	// returns the node index the peer identified itself with; the caller
	// checks it against the peer it expects. dialer distinguishes the
	// connecting from the accepting end for codecs with asymmetric
	// establishment.
	Handshake(conn net.Conn, dialer bool) (bgp.NodeID, error)
	// ReadMessage blocks for the next logical message. It runs on the
	// session's read goroutine only.
	ReadMessage() (wire.Message, error)
	// AppendUpdate frames one logical UPDATE (possibly as several wire
	// messages) onto buf.
	AppendUpdate(buf []byte, u *wire.Update) ([]byte, error)
	// AppendKeepalive frames one liveness message onto buf.
	AppendKeepalive(buf []byte) []byte
	// AppendNotification frames one NOTIFICATION onto buf.
	AppendNotification(buf []byte, n wire.Notification) []byte
	// NotificationFor maps a ReadMessage error to the NOTIFICATION that
	// should be sent before teardown, if the codec wants one sent.
	NotificationFor(err error) (wire.Notification, bool)
	// HoldTime is the negotiated hold time after Handshake; zero means no
	// hold timer and no keepalive generation.
	HoldTime() time.Duration
}

// PrivateCodec is the original compact framing of package wire: no
// handshake beyond the dialer's OPEN, no liveness protocol.
var PrivateCodec Codec = privateCodec{}

// BGP4 is the real RFC 4271/4456 wire format with ADD-PATH, implemented
// by package bgp4: full OPEN capability negotiation, keepalives, hold
// timer, NOTIFICATION error reporting and reflection loop detection.
var BGP4 Codec = bgp4Codec{}

// CodecByName resolves a -codec flag value; the empty string selects the
// private codec.
func CodecByName(name string) (Codec, error) {
	switch name {
	case "", "private":
		return PrivateCodec, nil
	case "bgp4":
		return BGP4, nil
	default:
		return nil, fmt.Errorf("speaker: unknown codec %q (have private, bgp4)", name)
	}
}

// privateCodec reproduces the seed speaker's session behaviour exactly:
// the dialer sends one wire.Open carrying its node index, the acceptor
// reads who claims to have dialed, and no further session machinery exists
// (the acceptor says nothing, so the dialer can only report the peer it
// was pointed at).
type privateCodec struct{}

func (privateCodec) Name() string { return "private" }

func (privateCodec) NewSession(info SessionInfo) SessionCodec {
	return &privateSession{info: info}
}

type privateSession struct {
	info SessionInfo
	r    *wire.Reader
}

func (p *privateSession) Handshake(conn net.Conn, dialer bool) (bgp.NodeID, error) {
	p.r = wire.NewReader(conn)
	if dialer {
		err := wire.NewWriter(conn).WriteMessage(wire.Open{
			Version: wire.Version,
			BGPID:   p.info.LocalBGPID,
			NodeID:  uint32(p.info.LocalNode),
		})
		return p.info.PeerNode, err
	}
	msg, err := p.r.ReadMessage()
	if err != nil {
		return 0, err
	}
	open, ok := msg.(wire.Open)
	if !ok {
		return 0, errors.New("speaker: expected OPEN")
	}
	return bgp.NodeID(open.NodeID), nil
}

func (p *privateSession) ReadMessage() (wire.Message, error) { return p.r.ReadMessage() }

func (p *privateSession) AppendUpdate(buf []byte, u *wire.Update) ([]byte, error) {
	return wire.AppendUpdate(buf, u)
}

func (p *privateSession) AppendKeepalive(buf []byte) []byte {
	buf, _ = wire.Append(buf, wire.Keepalive{})
	return buf
}

func (p *privateSession) AppendNotification(buf []byte, n wire.Notification) []byte {
	buf, _ = wire.Append(buf, n)
	return buf
}

func (p *privateSession) NotificationFor(error) (wire.Notification, bool) {
	return wire.Notification{}, false
}

func (p *privateSession) HoldTime() time.Duration { return 0 }

// bgp4Codec adapts package bgp4's Session to the seam.
type bgp4Codec struct{}

func (bgp4Codec) Name() string { return "bgp4" }

func (bgp4Codec) NewSession(info SessionInfo) SessionCodec {
	return &bgp4Session{s: bgp4.NewSession(bgp4.SessionConfig{
		LocalAS:   LocalAS,
		LocalID:   info.LocalBGPID,
		NodeID:    uint32(info.LocalNode),
		ClusterID: info.LocalBGPID,
		HoldTime:  info.HoldTime,
		OnLoop:    info.OnLoop,
		OriginatorID: func(exitPoint uint32) (uint32, bool) {
			return info.BGPIDOf(bgp.NodeID(exitPoint))
		},
	})}
}

type bgp4Session struct{ s *bgp4.Session }

func (b *bgp4Session) Handshake(conn net.Conn, _ bool) (bgp.NodeID, error) {
	if err := b.s.Establish(conn); err != nil {
		return 0, err
	}
	peer := b.s.Peer()
	if !peer.HasNodeID {
		return 0, errors.New("speaker: bgp4 peer did not advertise the node-ID capability")
	}
	return bgp.NodeID(peer.NodeID), nil
}

func (b *bgp4Session) ReadMessage() (wire.Message, error) { return b.s.ReadMessage() }

func (b *bgp4Session) AppendUpdate(buf []byte, u *wire.Update) ([]byte, error) {
	return b.s.AppendUpdate(buf, u), nil
}

func (b *bgp4Session) AppendKeepalive(buf []byte) []byte { return b.s.AppendKeepalive(buf) }

func (b *bgp4Session) AppendNotification(buf []byte, n wire.Notification) []byte {
	return b.s.AppendNotification(buf, n)
}

func (b *bgp4Session) NotificationFor(err error) (wire.Notification, bool) {
	return bgp4.NotificationFor(err)
}

func (b *bgp4Session) HoldTime() time.Duration { return b.s.HoldTime() }
