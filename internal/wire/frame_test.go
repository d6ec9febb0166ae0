package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	cases := []Frame{
		{Op: OpReady, Src: 3},
		{Op: OpData, Seq: 0, Src: 0, Dst: 1},
		{Op: OpData, Seq: 42, Src: 7, Dst: 2, Payload: []byte("quantized rows")},
		{Op: OpData, Seq: 1 << 30, Src: 65000, Dst: 65001, Payload: bytes.Repeat([]byte{0xA5}, 3*readChunk+17)},
	}
	var stream []byte
	for _, f := range cases {
		stream = AppendFrame(stream, f)
	}

	// ParseFrame walks the concatenated stream frame by frame.
	rest := stream
	for i, want := range cases {
		got, n, err := ParseFrame(rest)
		if err != nil {
			t.Fatalf("frame %d: ParseFrame: %v", i, err)
		}
		if n != FrameSize(len(want.Payload)) {
			t.Fatalf("frame %d: consumed %d bytes, want %d", i, n, FrameSize(len(want.Payload)))
		}
		checkFrame(t, i, got, want)
		rest = rest[n:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left after parsing all frames", len(rest))
	}

	// ReadFrame decodes the same stream from an io.Reader, one byte at a
	// time to exercise short reads.
	br := bufio.NewReaderSize(iotest1{bytes.NewReader(stream)}, 1)
	for i, want := range cases {
		got, err := ReadFrame(br)
		if err != nil {
			t.Fatalf("frame %d: ReadFrame: %v", i, err)
		}
		checkFrame(t, i, got, want)
	}
	if _, err := ReadFrame(br); err != io.EOF {
		t.Fatalf("ReadFrame at stream end: %v, want io.EOF", err)
	}
}

// iotest1 delivers at most one byte per Read (a pathological-but-legal
// reader).
type iotest1 struct{ r io.Reader }

func (r iotest1) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return r.r.Read(p)
}

func checkFrame(t *testing.T, i int, got, want Frame) {
	t.Helper()
	if got.Op != want.Op || got.Seq != want.Seq || got.Src != want.Src || got.Dst != want.Dst {
		t.Fatalf("frame %d: header %+v, want %+v", i, got, want)
	}
	if !bytes.Equal(got.Payload, want.Payload) {
		t.Fatalf("frame %d: payload mismatch (%d vs %d bytes)", i, len(got.Payload), len(want.Payload))
	}
}

func TestFrameDecodeErrors(t *testing.T) {
	valid := AppendFrame(nil, Frame{Op: OpData, Seq: 9, Src: 1, Dst: 2, Payload: []byte("payload")})
	oversized := append([]byte(nil), valid...)
	oversized[0], oversized[1], oversized[2], oversized[3] = 0xFF, 0xFF, 0xFF, 0xFF
	badVersion := append([]byte(nil), valid...)
	badVersion[4] = 99
	badOp := append([]byte(nil), valid...)
	badOp[5] = 0

	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, ErrShortFrame},
		{"truncated prefix", valid[:3], ErrShortFrame},
		{"truncated header", valid[:FrameOverhead-2], ErrShortFrame},
		{"mid-payload EOF", valid[:len(valid)-3], ErrShortFrame},
		{"length below header", AppendFrame(nil, Frame{Op: OpData})[:4], ErrShortFrame},
		{"oversized length", oversized, ErrFrameTooLarge},
		{"bad version", badVersion, ErrBadVersion},
		{"bad op", badOp, ErrBadOp},
	}
	for _, tc := range cases {
		if _, _, err := ParseFrame(tc.in); !errors.Is(err, tc.want) {
			t.Errorf("%s: ParseFrame err = %v, want %v", tc.name, err, tc.want)
		}
		if _, err := ReadFrame(bytes.NewReader(tc.in)); err == nil {
			t.Errorf("%s: ReadFrame accepted a malformed stream", tc.name)
		}
	}

	// "length below header" needs a hand-built prefix (AppendFrame cannot
	// produce one): length 4 < headerLen.
	short := []byte{4, 0, 0, 0, Version, OpData, 0, 0}
	if _, _, err := ParseFrame(short); !errors.Is(err, ErrShortFrame) {
		t.Errorf("length-below-header: ParseFrame err = %v, want ErrShortFrame", err)
	}
}

// TestRetiredOpsAreBadOps: the protocol is OpReady and OpData. Op 1
// opened the parent's connection when workers were dialed (they inherit it
// now); ops 4 and 5 were a shutdown request and a stats report (a worker
// now ends at EOF, and the parent counts for itself). Each is ErrBadOp to
// both decoders, like 0 and anything above.
func TestRetiredOpsAreBadOps(t *testing.T) {
	for _, op := range []byte{0, 1, 4, 5, 6, 0xFF} {
		b := AppendFrame(nil, Frame{Op: OpData, Src: 1, Payload: []byte("payload")})
		b[5] = op
		if _, _, err := ParseFrame(b); !errors.Is(err, ErrBadOp) {
			t.Errorf("op %d: ParseFrame err = %v, want ErrBadOp", op, err)
		}
		if _, err := ReadFrame(bytes.NewReader(b)); !errors.Is(err, ErrBadOp) {
			t.Errorf("op %d: ReadFrame err = %v, want ErrBadOp", op, err)
		}
		if _, err := newFrameReader(bytes.NewReader(b)).next(); !errors.Is(err, ErrBadOp) {
			t.Errorf("op %d: frameReader err = %v, want ErrBadOp", op, err)
		}
	}
}

// FuzzFrameDecode drives the frame parser with mutated wire bytes:
// truncated length prefixes and headers, oversized length claims,
// mid-payload EOFs. The decoders sit on the trust boundary between
// processes, so every malformed input must produce an error — never a
// panic, an out-of-range read, or an allocation beyond the data actually
// present. Accepted frames must re-encode to the exact consumed bytes.
func FuzzFrameDecode(f *testing.F) {
	valid := AppendFrame(nil, Frame{Op: OpData, Seq: 7, Src: 1, Dst: 2, Payload: []byte("codec payload bytes")})
	f.Add(append([]byte(nil), valid...))
	f.Add(append([]byte(nil), valid[:3]...))               // truncated length prefix
	f.Add(append([]byte(nil), valid[:FrameOverhead-2]...)) // truncated header
	f.Add(append([]byte(nil), valid[:len(valid)-3]...))    // mid-payload EOF
	oversized := append([]byte(nil), valid...)
	oversized[0], oversized[1], oversized[2], oversized[3] = 0xFF, 0xFF, 0xFF, 0xFF
	f.Add(oversized) // hostile length prefix
	f.Add(AppendFrame(valid[:len(valid):len(valid)], Frame{Op: OpReady, Src: 4}))

	f.Fuzz(func(t *testing.T, data []byte) {
		// ParseFrame: walk as many frames as the input holds; each
		// accepted frame must reserialize byte-exactly.
		rest := data
		for {
			fr, n, err := ParseFrame(rest)
			if err != nil {
				break
			}
			if n < FrameOverhead || n > len(rest) {
				t.Fatalf("ParseFrame consumed %d of %d bytes", n, len(rest))
			}
			if got := AppendFrame(nil, fr); !bytes.Equal(got, rest[:n]) {
				t.Fatalf("re-encode of an accepted frame diverged from the wire bytes")
			}
			rest = rest[n:]
		}

		// ReadFrame: same stream through the io.Reader path; must
		// terminate with io.EOF or a decode error, never panic.
		br := bufio.NewReader(bytes.NewReader(data))
		for {
			fr, err := ReadFrame(br)
			if err != nil {
				break
			}
			if len(fr.Payload) > MaxPayload {
				t.Fatalf("ReadFrame returned a %d-byte payload", len(fr.Payload))
			}
		}

		// The reusing reader of the data path: the same frames and the
		// same end as ReadFrame, in a buffer that only the bytes actually
		// received can have grown.
		reuse := newFrameReader(bytes.NewReader(data))
		sameOutcome(t, "fuzz input", reuse, bytes.NewReader(data))
		if len(reuse.buf) > max(readChunk, 2*len(data)) {
			t.Fatalf("reusing reader grew its buffer to %d bytes on %d bytes of input", len(reuse.buf), len(data))
		}
	})
}
