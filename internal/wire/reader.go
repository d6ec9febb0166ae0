package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// frameReader decodes a stream of frames through one reusable buffer — the
// data path's reader. It accepts and rejects exactly what ReadFrame does,
// but allocates nothing per frame.
//
// Buffer lifetime: the payload of a frame returned by next aliases the
// reader's buffer and is valid only until the following call to next. A
// forwarder copies or writes the bytes out before it reads again; a
// consumer that keeps them clones them.
//
// Every Read offers the stream all free buffer space, so one read may bring
// in many frames; buffered tells whether the next one is already complete.
// The buffer starts at readChunk and grows only when it is full of one
// unfinished frame's bytes, at most doubling — a hostile length prefix
// cannot force an allocation beyond twice what the stream delivered.
type frameReader struct {
	src  io.Reader
	buf  []byte
	r, w int // buf[r:w] is read from the stream and not yet consumed
}

func newFrameReader(src io.Reader) *frameReader {
	return &frameReader{src: src, buf: make([]byte, readChunk)}
}

// fill reads until n unconsumed bytes are buffered. It returns io.EOF when
// the stream ended with nothing buffered, io.ErrUnexpectedEOF when it ended
// short of n, and any other read error as is.
func (fr *frameReader) fill(n int) error {
	if fr.w-fr.r >= n {
		return nil
	}
	// About to read: move what is left of the last read (less than one
	// frame) to the front, so the stream is offered all free space at once.
	fr.w = copy(fr.buf, fr.buf[fr.r:fr.w])
	fr.r = 0
	for fr.w < n {
		if fr.w == len(fr.buf) {
			// Full of one unfinished frame's bytes: grow, at most doubling.
			grown := make([]byte, min(n, 2*len(fr.buf)))
			copy(grown, fr.buf)
			fr.buf = grown
		}
		k, err := fr.src.Read(fr.buf[fr.w:])
		fr.w += k
		if err != nil && fr.w < n {
			if err == io.EOF && fr.w > 0 {
				return io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// next decodes the next frame. io.EOF is returned only at a clean frame
// boundary; mid-frame EOF surfaces as ErrShortFrame.
func (fr *frameReader) next() (Frame, error) {
	if err := fr.fill(prefixLen); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("%w: EOF inside the length prefix", ErrShortFrame)
		}
		return Frame{}, err
	}
	length, err := parseLength(fr.buf[fr.r:])
	if err != nil {
		return Frame{}, err
	}
	// The header is checked before the payload is waited for, so a corrupt
	// stream is rejected without reading on.
	if err := fr.fill(FrameOverhead); err != nil {
		return Frame{}, shortFrame(err, "the header")
	}
	f, err := parseHeader(fr.buf[fr.r+prefixLen:])
	if err != nil {
		return Frame{}, err
	}
	total := prefixLen + length
	if err := fr.fill(total); err != nil {
		return Frame{}, shortFrame(err, "the payload")
	}
	end := fr.r + total
	f.Payload = fr.buf[fr.r+FrameOverhead : end : end]
	fr.r = end
	return f, nil
}

func shortFrame(err error, where string) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: EOF inside %s", ErrShortFrame, where)
	}
	return err
}

// consumed returns the last n bytes next consumed, as one slice of the
// buffer. Frames next returned since it last read the stream sit back to
// back there, so a run of them is one slice; it is valid until next reads
// the stream again, which it does only when buffered is false.
func (fr *frameReader) consumed(n int) []byte {
	return fr.buf[fr.r-n : fr.r]
}

// buffered reports whether the next frame is already complete in the
// buffer, that is, whether next would return it without reading the stream.
func (fr *frameReader) buffered() bool {
	b := fr.buf[fr.r:fr.w]
	return len(b) >= prefixLen && uint64(len(b)-prefixLen) >= uint64(binary.LittleEndian.Uint32(b))
}
