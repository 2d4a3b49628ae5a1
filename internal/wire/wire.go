// Package wire is dorad's streaming binary transport: a versioned,
// length-prefixed frame codec for simulation requests and results,
// carried over a long-lived connection that a client obtains by
// upgrading a plain HTTP request (GET /v1/stream, WebSocket-style).
// It exists because one HTTP/JSON round trip per /v1/load is the
// serving bottleneck at scale — the kernel answers repeat requests in
// microseconds while the transport charges milliseconds.
//
// Protocol shape:
//
//   - Handshake: the client sends an Upgrade request carrying the wire
//     protocol version and the runcache schema version; the server
//     accepts with 101 only when both match, so a codec or result-
//     schema skew is refused before a single frame moves. Per-frame
//     flate compression is negotiated with an extra header.
//   - Frames: a fixed 16-byte header (payload length, frame type,
//     flags, a small aux field, and a 64-bit correlation id) followed
//     by the payload. Requests are binary-encoded (varint fields,
//     length-prefixed strings, a leading codec-version byte); results
//     carry the exact JSON bytes the compat endpoints produce, so a
//     decoded stream result is byte-identical to the JSON path by
//     construction.
//   - Pipelining: the client assigns ids and may keep any number of
//     requests in flight; the server completes them out of order,
//     tagging every completion with the originating id. Campaign
//     results stream incrementally — one CampaignCell frame per grid
//     cell as its run finishes (aux = cell index), then a CampaignEnd
//     summary — so first-result latency is decoupled from last-run
//     latency.
//
// The frame-header encode/decode pair is the per-frame fast path and
// is held to zero allocations (TestWireFrameAllocs); the request
// codecs are strict on hostile input (FuzzWireDecode) and cap every
// length they read.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Protocol identity. ProtoVersion gates the frame layout and frame
// types; CodecVersion leads every binary-encoded request payload and
// gates the field layout. Both are negotiated at handshake together
// with runcache.SchemaVersion (the result-schema version), so the
// three can only move in lockstep between compatible peers.
const (
	ProtoVersion = 1
	CodecVersion = 1

	// UpgradeProtocol is the HTTP Upgrade token for the stream.
	UpgradeProtocol = "dora-stream/1"
	// StreamPath is the upgrade endpoint on the daemon.
	StreamPath = "/v1/stream"

	// VersionHeader carries ProtoVersion in the handshake.
	VersionHeader = "X-Dora-Wire-Version"
	// SchemaHeader carries the runcache schema version in the handshake.
	SchemaHeader = "X-Dora-Schema-Version"
	// CompressHeader negotiates per-frame compression ("flate").
	CompressHeader = "X-Dora-Stream-Compress"
	// CompressFlate is the only compression scheme spoken.
	CompressFlate = "flate"
)

// Frame types. Client-to-server types carry requests; server-to-client
// types complete them (Result/Error for loads, CampaignCell*/
// CampaignEnd/Error for campaigns) or manage the connection (Goodbye).
const (
	TypeLoad         byte = 1 // c->s: binary LoadRequest
	TypeCampaign     byte = 2 // c->s: binary CampaignRequest
	TypeResult       byte = 3 // s->c: JSON result bytes, completes a Load id
	TypeCampaignCell byte = 4 // s->c: JSON CampaignCell bytes, aux = cell index
	TypeCampaignEnd  byte = 5 // s->c: binary summary, completes a Campaign id
	TypeError        byte = 6 // s->c: binary Error, completes an id
	TypeGoodbye      byte = 7 // s->c: draining; no new requests will be accepted
)

// Frame flags. Bits 1-3 encode the response provenance the JSON path
// reports in the X-Dora-Source header ("mixed" on campaign summaries
// whose cells came from more than one source).
const (
	// FlagCompressed marks a flate-compressed payload.
	FlagCompressed byte = 1 << 0

	sourceShift      = 1
	sourceMask  byte = 0b111 << sourceShift
)

// sourceNames maps the 3-bit source field to the header values the
// JSON endpoints use; index 0 is "no provenance".
var sourceNames = [8]string{"", "sim", "dedup", "cache", "mixed", "", "", ""}

// SourceFlag encodes a provenance string into frame flags; unknown
// strings encode as "no provenance".
func SourceFlag(src string) byte {
	for i, name := range sourceNames {
		if i > 0 && name == src {
			return byte(i) << sourceShift
		}
	}
	return 0
}

// FlagSource decodes the provenance carried in frame flags.
func FlagSource(flags byte) string {
	return sourceNames[(flags&sourceMask)>>sourceShift]
}

// HeaderSize is the fixed frame-header length in bytes.
const HeaderSize = 16

// Frame is one decoded frame header. Len is the payload length and is
// filled by the codec on both sides.
type Frame struct {
	Len   uint32
	Type  byte
	Flags byte
	// Aux is a small type-specific field: the cell index on
	// TypeCampaignCell frames, zero elsewhere.
	Aux uint16
	// ID correlates completions with requests; the client assigns it
	// and the server echoes it on every frame answering that request.
	ID uint64
}

// PutHeader encodes f into buf, which must be at least HeaderSize
// bytes. Layout (big-endian): payload length u32, type u8, flags u8,
// aux u16, id u64.
func PutHeader(buf []byte, f *Frame) {
	binary.BigEndian.PutUint32(buf[0:4], f.Len)
	buf[4] = f.Type
	buf[5] = f.Flags
	binary.BigEndian.PutUint16(buf[6:8], f.Aux)
	binary.BigEndian.PutUint64(buf[8:16], f.ID)
}

// ParseHeader decodes a frame header from buf (at least HeaderSize
// bytes) into f. Length validation is the caller's job (ReadFrame):
// parsing itself cannot fail and allocates nothing.
func ParseHeader(buf []byte, f *Frame) {
	f.Len = binary.BigEndian.Uint32(buf[0:4])
	f.Type = buf[4]
	f.Flags = buf[5]
	f.Aux = binary.BigEndian.Uint16(buf[6:8])
	f.ID = binary.BigEndian.Uint64(buf[8:16])
}

// ErrFrameTooBig reports a frame whose declared payload exceeds the
// receiver's budget; the connection is poisoned (the stream cannot be
// resynchronized) and must be closed.
var ErrFrameTooBig = errors.New("wire: frame payload exceeds budget")

// WriteFrame appends one frame (header + payload) to w. The caller
// owns flushing: coalescing several frames per flush is the write-side
// collector's whole point. A *bufio.Writer (every production call
// site) takes the buffered fast path, which stages the header in the
// writer's own buffer and performs no per-frame allocation.
func WriteFrame(w io.Writer, f *Frame, payload []byte) error {
	f.Len = uint32(len(payload))
	if bw, ok := w.(*bufio.Writer); ok {
		return writeFrameBuffered(bw, f, payload)
	}
	var hdr [HeaderSize]byte
	PutHeader(hdr[:], f)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// writeFrameBuffered encodes the header directly into bw's free space
// (bufio guarantees a buffer of at least HeaderSize bytes), so a
// stack-staged header never escapes through the io.Writer interface.
func writeFrameBuffered(bw *bufio.Writer, f *Frame, payload []byte) error {
	if bw.Available() < HeaderSize {
		if err := bw.Flush(); err != nil {
			return err
		}
	}
	hdr := bw.AvailableBuffer()[:HeaderSize]
	PutHeader(hdr, f)
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := bw.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrame reads one frame from r, enforcing maxPayload as the frame
// budget. A frame over budget returns ErrFrameTooBig (wrapped with the
// sizes) without reading the payload, so a hostile length prefix can
// never drive a large allocation.
func ReadFrame(r io.Reader, maxPayload int64) (Frame, []byte, error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, nil, err
	}
	var f Frame
	ParseHeader(hdr[:], &f)
	if int64(f.Len) > maxPayload {
		return Frame{}, nil, fmt.Errorf("%w: %d > %d", ErrFrameTooBig, f.Len, maxPayload)
	}
	if f.Len == 0 {
		return f, nil, nil
	}
	payload := make([]byte, f.Len)
	if _, err := io.ReadFull(r, payload); err != nil {
		return Frame{}, nil, err
	}
	return f, payload, nil
}
