// Package wire is the process plumbing behind the proc-sharded transport
// backend: a length-prefixed binary frame format plus the parent/worker
// machinery that moves those frames between OS processes over Unix-domain
// socket pairs, one per worker, each handed to its worker at spawn. The
// parent process runs the simulated devices and their clocks;
// every collective payload is serialized into a frame, shipped to the
// worker process owning the source rank's shard and sent straight back to
// the parent by that worker, which delivers it to the destination rank — so
// codec wire formats cross a real kernel socket, twice, instead of being
// handed over as pointers. The fleet is a star: the parent is the hub, each
// worker a spoke, and workers never talk to each other.
//
// Frame layout (all integers little-endian):
//
//	offset  size  field
//	0       4     length of the rest of the frame (header + payload)
//	4       1     format version (currently 1)
//	5       1     op (OpReady, OpData)
//	6       4     seq — collective sequence number
//	10      2     src rank
//	12      2     dst rank
//	14      ...   payload (length − 10 bytes)
//
// The format is fixed by the golden fixtures under testdata/ — changing it
// is a wire-protocol break and must update those fixtures deliberately.
//
// Data path. Batching lives at the stream level, never in the frame format.
// Everything one device ships in one collective — a post — leaves the
// parent as one vectored write with the payloads in place (conn.writeFrames).
// A worker is an echo: it decodes through a frameReader, whose payloads
// alias one reusable buffer, and writes the run of complete frames it holds
// back out of that buffer the moment its input holds no further complete
// frame — so a steady-state echo copies and allocates nothing and no frame
// is ever held across a blocking read. The parent's reader decodes the same
// way and hands each payload to its consumer in place, valid until the
// consumer returns; a consumer that keeps it copies it into storage of its
// own. ReadFrame is the allocating decoder for callers that keep the
// payload.
//
// Lifetime. A fleet lives until Shutdown or Kill, across any number of
// uses: a worker holds no state but what it has not yet echoed. Shutdown
// half-closes every worker's connection; the worker echoes what it holds,
// reads EOF between frames and exits, and the parent's reader delivers
// every echo before it reads that EOF. The parent's own frame counters are
// the accounting (Pool.Stats).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

const (
	// Version is the format version byte every frame carries.
	Version = 1

	prefixLen = 4  // u32 length prefix
	headerLen = 10 // version + op + seq + src + dst

	// FrameOverhead is the framed size of an empty payload: the length
	// prefix plus the fixed header.
	FrameOverhead = prefixLen + headerLen

	// MaxPayload bounds a single frame's payload. The limit exists so a
	// corrupted or hostile length prefix is rejected up front instead of
	// driving a multi-gigabyte read loop.
	MaxPayload = 1 << 28
)

// Frame ops. OpReady is a worker's startup acknowledgment to the parent.
// OpData carries one collective payload from Src to Dst, parent to worker
// and back. Every other op byte is invalid.
const (
	OpReady byte = iota + 2
	OpData
)

// ParentID is the largest uint16, kept out of the rank space: device
// ranks are uint16 below it, so a runtime may have at most ParentID
// devices.
const ParentID = 0xFFFF

// Frame is one decoded wire frame.
type Frame struct {
	Op       byte
	Seq      uint32
	Src, Dst uint16
	Payload  []byte
}

// Decoding errors. Wrapped with context; match with errors.Is.
var (
	ErrShortFrame    = errors.New("wire: truncated frame")
	ErrFrameTooLarge = errors.New("wire: frame length exceeds maximum")
	ErrBadVersion    = errors.New("wire: unknown frame version")
	ErrBadOp         = errors.New("wire: unknown frame op")
)

// FrameSize is the framed size of a payloadLen-byte payload.
func FrameSize(payloadLen int) int { return FrameOverhead + payloadLen }

// AppendFrame appends f's wire encoding to dst and returns the extended
// slice. Oversized payloads panic: frame construction is under the
// transport's control, so exceeding MaxPayload is a programming error, not
// an input condition.
func AppendFrame(dst []byte, f Frame) []byte {
	return append(appendHeader(dst, f), f.Payload...)
}

// appendHeader appends everything of f's encoding but the payload bytes:
// the length prefix (which counts them) and the fixed header.
func appendHeader(dst []byte, f Frame) []byte {
	if len(f.Payload) > MaxPayload {
		panic(fmt.Sprintf("wire: %d-byte payload exceeds MaxPayload (%d)", len(f.Payload), MaxPayload))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(headerLen+len(f.Payload)))
	dst = append(dst, Version, f.Op)
	dst = binary.LittleEndian.AppendUint32(dst, f.Seq)
	dst = binary.LittleEndian.AppendUint16(dst, f.Src)
	return binary.LittleEndian.AppendUint16(dst, f.Dst)
}

// parseLength validates a length prefix (pre must hold at least prefixLen
// bytes) and returns the byte count of the rest of the frame.
func parseLength(pre []byte) (int, error) {
	length := binary.LittleEndian.Uint32(pre)
	if length < headerLen {
		return 0, fmt.Errorf("%w: length %d below header size %d", ErrShortFrame, length, headerLen)
	}
	if length > headerLen+MaxPayload {
		return 0, fmt.Errorf("%w: length %d", ErrFrameTooLarge, length)
	}
	return int(length), nil
}

// parseHeader decodes the post-prefix fixed header (h must hold at least
// headerLen bytes).
func parseHeader(h []byte) (Frame, error) {
	if h[0] != Version {
		return Frame{}, fmt.Errorf("%w: %d", ErrBadVersion, h[0])
	}
	op := h[1]
	if op != OpReady && op != OpData {
		return Frame{}, fmt.Errorf("%w: %d", ErrBadOp, op)
	}
	return Frame{
		Op:  op,
		Seq: binary.LittleEndian.Uint32(h[2:]),
		Src: binary.LittleEndian.Uint16(h[6:]),
		Dst: binary.LittleEndian.Uint16(h[8:]),
	}, nil
}

// ParseFrame decodes one frame from the front of b, returning the frame
// and the number of bytes consumed. The returned payload aliases b (no
// allocation), so a corrupted length prefix can never force one: inputs
// that do not hold a complete, well-formed frame error out.
func ParseFrame(b []byte) (Frame, int, error) {
	if len(b) < prefixLen {
		return Frame{}, 0, fmt.Errorf("%w: %d bytes, need %d for the length prefix", ErrShortFrame, len(b), prefixLen)
	}
	length, err := parseLength(b)
	if err != nil {
		return Frame{}, 0, err
	}
	if len(b)-prefixLen < length {
		return Frame{}, 0, fmt.Errorf("%w: length %d with only %d bytes after the prefix", ErrShortFrame, length, len(b)-prefixLen)
	}
	f, err := parseHeader(b[prefixLen:])
	if err != nil {
		return Frame{}, 0, err
	}
	total := prefixLen + length
	f.Payload = b[FrameOverhead:total:total]
	return f, total, nil
}

// readChunk bounds how much readChunked grows its buffer ahead of data
// actually arriving, so a hostile length prefix cannot force a large
// allocation before the stream proves it has the bytes.
const readChunk = 64 << 10

func readChunked(r io.Reader, n int) ([]byte, error) {
	var buf []byte
	for len(buf) < n {
		k := min(n-len(buf), readChunk)
		start := len(buf)
		buf = slices.Grow(buf, k)[: start+k : start+k]
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return buf, nil
}

// ReadFrame decodes one frame from r. The returned payload is freshly
// allocated (never aliases reader internals), and the allocation grows
// with the data actually read. io.EOF is returned only at a clean frame
// boundary; mid-frame EOF surfaces as ErrShortFrame.
func ReadFrame(r io.Reader) (Frame, error) {
	var pre [prefixLen]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return Frame{}, fmt.Errorf("%w: EOF inside the length prefix", ErrShortFrame)
		}
		return Frame{}, err
	}
	length, err := parseLength(pre[:])
	if err != nil {
		return Frame{}, err
	}
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, fmt.Errorf("%w: EOF inside the header", ErrShortFrame)
	}
	f, err := parseHeader(hdr[:])
	if err != nil {
		return Frame{}, err
	}
	if plen := length - headerLen; plen > 0 {
		payload, err := readChunked(r, plen)
		if err != nil {
			return Frame{}, fmt.Errorf("%w: EOF inside a %d-byte payload", ErrShortFrame, plen)
		}
		f.Payload = payload
	}
	return f, nil
}
