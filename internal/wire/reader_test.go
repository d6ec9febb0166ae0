package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"testing/iotest"
)

// goldenStream is the 15 golden frames (one framed codec message each, see
// internal/core's TestWireGoldenFrames) back to back.
func goldenStream(t *testing.T) (stream []byte, frames []Frame) {
	t.Helper()
	paths, err := filepath.Glob("testdata/*.frame")
	if err != nil || len(paths) != 15 {
		t.Fatalf("found %d golden frames (err %v), want 15", len(paths), err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		f, n, err := ParseFrame(b)
		if err != nil || n != len(b) {
			t.Fatalf("%s: ParseFrame consumed %d of %d bytes, err %v", p, n, len(b), err)
		}
		stream = append(stream, b...)
		frames = append(frames, f)
	}
	return stream, frames
}

// splitReader yields a stream in two reads, cut at a given offset.
type splitReader struct {
	parts [][]byte
}

func (s *splitReader) Read(p []byte) (int, error) {
	for len(s.parts) > 0 && len(s.parts[0]) == 0 {
		s.parts = s.parts[1:]
	}
	if len(s.parts) == 0 {
		return 0, io.EOF
	}
	n := copy(p, s.parts[0])
	s.parts[0] = s.parts[0][n:]
	return n, nil
}

// sameOutcome drives a frameReader and ReadFrame over the same bytes and
// requires the same frames in the same order and the same end: a clean
// io.EOF from both, or the same decode error class.
func sameOutcome(t *testing.T, label string, fr *frameReader, ref io.Reader) int {
	t.Helper()
	for i := 0; ; i++ {
		got, gotErr := fr.next()
		want, wantErr := ReadFrame(ref)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s: frame %d: reusing reader err %v, ReadFrame err %v", label, i, gotErr, wantErr)
		}
		if gotErr != nil {
			for _, class := range []error{io.EOF, ErrShortFrame, ErrFrameTooLarge, ErrBadVersion, ErrBadOp} {
				if errors.Is(gotErr, class) != errors.Is(wantErr, class) {
					t.Fatalf("%s: frame %d: reusing reader ended with %v, ReadFrame with %v", label, i, gotErr, wantErr)
				}
			}
			return i
		}
		checkFrame(t, i, got, want)
	}
}

// TestFrameReaderMatchesReadFrame holds the reusing reader to the
// allocating one on the golden frames: each on its own, then all 15 as one
// stream arriving a byte at a time, in halves, and cut in two at every byte
// offset.
func TestFrameReaderMatchesReadFrame(t *testing.T) {
	stream, frames := goldenStream(t)

	rest := stream
	for i, want := range frames {
		n := FrameSize(len(want.Payload))
		fr := newFrameReader(bytes.NewReader(rest[:n]))
		got, err := fr.next()
		if err != nil {
			t.Fatalf("golden frame %d: %v", i, err)
		}
		checkFrame(t, i, got, want)
		if got, err := fr.next(); err != io.EOF {
			t.Fatalf("golden frame %d: after the frame: %+v, %v, want io.EOF", i, got, err)
		}
		rest = rest[n:]
	}

	streams := map[string]func() io.Reader{
		"whole":    func() io.Reader { return bytes.NewReader(stream) },
		"one byte": func() io.Reader { return iotest.OneByteReader(bytes.NewReader(stream)) },
		"halves":   func() io.Reader { return iotest.HalfReader(bytes.NewReader(stream)) },
		"data+EOF": func() io.Reader { return iotest.DataErrReader(bytes.NewReader(stream)) },
	}
	for name, open := range streams {
		if n := sameOutcome(t, name, newFrameReader(open()), bytes.NewReader(stream)); n != len(frames) {
			t.Errorf("%s: decoded %d frames, want %d", name, n, len(frames))
		}
	}
	fr := newFrameReader(nil)
	for cut := 0; cut <= len(stream); cut++ {
		fr.src, fr.r, fr.w = &splitReader{parts: [][]byte{stream[:cut], stream[cut:]}}, 0, 0
		for i, want := range frames {
			got, err := fr.next()
			if err != nil {
				t.Fatalf("cut at %d: frame %d: %v", cut, i, err)
			}
			checkFrame(t, i, got, want)
		}
		if _, err := fr.next(); err != io.EOF {
			t.Fatalf("cut at %d: stream end: %v, want io.EOF", cut, err)
		}
	}
}

// TestFrameReaderBufferReuse pins the two properties forwarding rests on:
// the payload aliases the reader's buffer (nothing is allocated per frame),
// and buffered tells a complete next frame from a partial one.
func TestFrameReaderBufferReuse(t *testing.T) {
	one := AppendFrame(nil, Frame{Op: OpData, Seq: 1, Src: 2, Dst: 3, Payload: bytes.Repeat([]byte{7}, 100)})
	stream := append(append(append([]byte(nil), one...), one...), one[:len(one)/2]...)
	fr := newFrameReader(bytes.NewReader(stream))
	buf := fr.buf
	for i := 0; i < 2; i++ {
		f, err := fr.next()
		if err != nil {
			t.Fatal(err)
		}
		if &f.Payload[0] != &buf[i*len(one)+FrameOverhead] {
			t.Fatalf("frame %d: payload does not alias the reader's buffer", i)
		}
		if want := i == 0; fr.buffered() != want {
			t.Fatalf("after frame %d: buffered() = %v, want %v", i, !want, want)
		}
	}
	if _, err := fr.next(); !errors.Is(err, ErrShortFrame) {
		t.Fatalf("half a frame then EOF: %v, want ErrShortFrame", err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		fr.src, fr.r, fr.w = bytes.NewReader(one), 0, 0
		if _, err := fr.next(); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 { // the bytes.Reader
		t.Errorf("decoding a frame allocated %v times", allocs)
	}
}

// TestFrameReaderGrowth: the buffer grows to hold a frame larger than
// itself, but only as the stream delivers — a hostile prefix claiming the
// maximum followed by a few bytes buys no allocation at all.
func TestFrameReaderGrowth(t *testing.T) {
	big := Frame{Op: OpData, Seq: 9, Payload: bytes.Repeat([]byte{0xC3}, 5*readChunk+11)}
	fr := newFrameReader(iotest.HalfReader(bytes.NewReader(AppendFrame(nil, big))))
	got, err := fr.next()
	if err != nil {
		t.Fatal(err)
	}
	checkFrame(t, 0, got, big)
	if len(fr.buf) > 2*FrameSize(len(big.Payload)) {
		t.Errorf("buffer grew to %d bytes for a %d-byte frame", len(fr.buf), FrameSize(len(big.Payload)))
	}

	hostile := binary.LittleEndian.AppendUint32(nil, headerLen+MaxPayload)
	hostile = append(hostile, Version, OpData, 0, 0, 0, 0, 0, 0, 0, 0, 'x', 'y')
	fr = newFrameReader(bytes.NewReader(hostile))
	if _, err := fr.next(); !errors.Is(err, ErrShortFrame) {
		t.Fatalf("hostile prefix: %v, want ErrShortFrame", err)
	}
	if len(fr.buf) != readChunk {
		t.Errorf("hostile prefix grew the buffer to %d bytes", len(fr.buf))
	}
}
