package rpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
)

// Wire format of the TCP transport. A connection carries a sequence of
// request/response pairs, one in flight at a time. Every frame starts with a
// 4-byte big-endian length that counts the bytes after it, so a reader of any
// version can skip a frame it does not understand:
//
//	request:  len | version | objLen | object | methLen | method | body
//	response: len | status  | body (statusOK) or error text
//
// version and status are one byte, objLen and methLen two bytes big-endian.
// A status other than statusOK is the failure's code, from the one table in
// codes.go. Bodies are opaque here (callers encode them as WireBody layouts,
// body.go; Call and registered methods hand theirs over in segments). The
// version byte changes whenever a body's layout or the status table does, so
// that a peer built from another tree is refused by name on its first call,
// not misread: version 5 is the frame whose estimates carry the server
// address (and whose submit reply is the ranked estimates alone), version 4
// the first whose status is the failure code and whose estimates have no
// free-memory field, version 3 the first whose bodies were all WireBody
// layouts.
const (
	frameVersion = 5

	// maxFrame bounds a frame's declared length, and with it what one body
	// can make its decoder allocate (a Reader allocates no more than a
	// constant multiple of the bytes it holds): 1 GiB, far beyond the
	// largest body a platform sends.
	maxFrame = 1 << 30

	minRequest  = 1 + 2 + 2 // version and two empty names
	minResponse = 1         // status

	// readBufSize is the one buffer a connection keeps: a small frame and its
	// length arrive in a single read, a large one is read straight into its
	// own slice (a recycled one on the server, framePool).
	readBufSize = 512

	// readChunk is how much of a declared length is allocated before the
	// bytes for it have arrived: a header claiming 1 GiB costs 8 MiB until
	// the peer actually sends more.
	readChunk = 8 << 20
)

var errFrame = errors.New("rpc: malformed frame")

// newReader gives a connection its one read buffer.
func newReader(r io.Reader) *bufio.Reader { return bufio.NewReaderSize(r, readBufSize) }

// readFrame reads one frame (without its length prefix) into a slice of
// exactly its size, which is never reused: a client reads its replies with
// it, a server its requests with readRequest. started reports whether any
// byte of the frame had arrived when err was met. The length is validated
// before anything is allocated.
func readFrame(br *bufio.Reader, least uint32) (frame []byte, started bool, err error) {
	size, started, err := readLength(br, least)
	if err != nil {
		return nil, started, err
	}
	frame, err = readBody(br, nil, size)
	return frame, true, err
}

// framePool holds the buffers of request frames of SegmentCut bytes or more
// that a server has answered. A buffer goes back only once the reply frame
// has been written and the method returned without error: a method owns its
// request bytes until it returns (a reply may alias them until it is sent),
// and copies whatever it keeps longer, unless it answers Keep, which keeps
// the frame out of the pool. A method that fails may have left work behind
// that still reads them, so its frame is never reused either. The pool is
// emptied by the collector, so a buffer no request draws for two cycles is
// freed.
var framePool sync.Pool // of *[]byte

// readRequest is readFrame for a server. A frame of SegmentCut bytes or more
// is read into the buffer drawn from framePool when that holds it and is at
// most twice its size, otherwise into a new slice; buf is then the buffer to
// put back. A buffer that does not fit is dropped, not grown, so one large
// frame does not pin its memory under every smaller one that follows. A
// frame below SegmentCut has buf nil.
func readRequest(br *bufio.Reader) (frame []byte, buf *[]byte, err error) {
	size, _, err := readLength(br, minRequest)
	if err != nil {
		return nil, nil, err
	}
	if size < SegmentCut {
		frame, err = readBody(br, nil, size)
		return frame, nil, err
	}
	var room []byte
	if buf, _ = framePool.Get().(*[]byte); buf != nil {
		room = *buf
	}
	if cap(room)/2 > size {
		room = nil
	}
	if frame, err = readBody(br, room, size); err != nil {
		return nil, nil, err
	}
	if cap(room) < size {
		buf = new([]byte) // not &frame, which would move every frame's header to the heap
		*buf = frame
	}
	return frame, buf, nil
}

// readLength reads and validates the length prefix of a frame.
func readLength(br *bufio.Reader, least uint32) (size int, started bool, err error) {
	hdr, err := br.Peek(4)
	if err != nil {
		return 0, len(hdr) > 0, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n < least || n > maxFrame {
		return 0, true, fmt.Errorf("%w: length %d", errFrame, n)
	}
	br.Discard(4)
	return int(n), true, nil
}

// readBody reads the size bytes of a frame into room when it holds them, and
// otherwise into a new slice that grows with the bytes that arrive: a
// declared length is untrusted, so no more than readChunk is allocated ahead
// of them. The frame's capacity is its length either way.
func readBody(br *bufio.Reader, room []byte, size int) ([]byte, error) {
	var frame []byte
	if cap(room) >= size {
		frame = room[:size]
	} else {
		frame = make([]byte, min(size, readChunk))
	}
	for have := 0; ; {
		if _, err := io.ReadFull(br, frame[have:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		have = len(frame)
		if have == size {
			return frame[:size:size], nil
		}
		frame = append(frame, make([]byte, min(size-have, readChunk))...)
	}
}

// writeFrame sends header and body as one frame with a single writev; the
// body's pieces are the caller's memory, never copied. WriteTo consumes the
// list it is called on, so the list is built here, per attempt: body is
// intact afterwards and can be sent again.
func writeFrame(conn net.Conn, header []byte, body segments) error {
	bufs := make(net.Buffers, 1, 2+2*len(body.cuts()))
	bufs[0] = header
	bufs = body.appendTo(bufs)
	_, err := bufs.WriteTo(conn)
	return err
}

// requestHeader builds everything of a request frame that precedes the body.
func requestHeader(object, method string, bodyLen int) ([]byte, error) {
	if len(object) > math.MaxUint16 || len(method) > math.MaxUint16 {
		return nil, fmt.Errorf("rpc: object or method name longer than %d bytes", math.MaxUint16)
	}
	n := minRequest + len(object) + len(method) + bodyLen
	if n > maxFrame {
		return nil, fmt.Errorf("rpc: request of %d bytes exceeds the %d byte frame limit", n, maxFrame)
	}
	h := make([]byte, 0, 4+n-bodyLen)
	h = binary.BigEndian.AppendUint32(h, uint32(n))
	h = append(h, frameVersion)
	h = binary.BigEndian.AppendUint16(h, uint16(len(object)))
	h = append(h, object...)
	h = binary.BigEndian.AppendUint16(h, uint16(len(method)))
	h = append(h, method...)
	return h, nil
}

// parseRequest splits what follows the version byte of a request frame; the
// body aliases the frame. ok is false when a name overruns the frame.
func parseRequest(b []byte) (object, method, body []byte, ok bool) {
	object, b, ok = cutField(b)
	if ok {
		method, body, ok = cutField(b)
	}
	return object, method, body, ok
}

// cutField splits a 2-byte-length-prefixed field off the front of b.
func cutField(b []byte) (field, rest []byte, ok bool) {
	if len(b) < 2 {
		return nil, nil, false
	}
	n := int(binary.BigEndian.Uint16(b))
	if len(b)-2 < n {
		return nil, nil, false
	}
	return b[2 : 2+n], b[2+n:], true
}

// responseHeader builds the length and status of a response frame.
func responseHeader(status byte, payloadLen int) []byte {
	h := make([]byte, 5)
	binary.BigEndian.PutUint32(h, uint32(minResponse+payloadLen))
	h[4] = status
	return h
}
