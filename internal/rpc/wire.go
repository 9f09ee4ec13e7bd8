package rpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
)

// Wire format of the TCP transport. A connection carries a sequence of
// request/response pairs, one in flight at a time. Every frame starts with a
// 4-byte big-endian length that counts the bytes after it, so a reader of any
// version can skip a frame it does not understand:
//
//	request:  len | version | objLen | object | methLen | method | body
//	response: len | status  | body (statusOK), object name or error text
//
// version and status are one byte, objLen and methLen two bytes big-endian.
// Bodies are opaque here (callers encode them with Encode; Call and typed
// handlers hand theirs over in segments, body.go). Version 2 is the
// frame of version 1 around bodies that are no longer all gob (body.go): the
// byte moved so that a version 1 peer is refused by name, not misread.
const (
	frameVersion = 2

	// maxFrame bounds a frame's declared length: the 1 GiB encoding/gob
	// enforces on the bodies it carries.
	maxFrame = 1 << 30

	minRequest  = 1 + 2 + 2 // version and two empty names
	minResponse = 1         // status

	// readBufSize is the one buffer a connection keeps: a small frame and its
	// length arrive in a single read, a large one is read straight into its
	// own slice.
	readBufSize = 512

	// readChunk is how much of a declared length is allocated before the
	// bytes for it have arrived: a header claiming 1 GiB costs 8 MiB until
	// the peer actually sends more.
	readChunk = 8 << 20
)

// Response statuses.
const (
	statusOK byte = iota
	statusNoObject
	statusError
)

var errFrame = errors.New("rpc: malformed frame")

// newReader gives a connection its one read buffer.
func newReader(r io.Reader) *bufio.Reader { return bufio.NewReaderSize(r, readBufSize) }

// readFrame reads one frame (without its length prefix) into a slice of
// exactly its size, which is never reused. started reports whether any byte
// of the frame had arrived when err was met. The length is validated before
// anything is allocated.
func readFrame(br *bufio.Reader, least uint32) (frame []byte, started bool, err error) {
	hdr, err := br.Peek(4)
	if err != nil {
		return nil, len(hdr) > 0, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n < least || n > maxFrame {
		return nil, true, fmt.Errorf("%w: length %d", errFrame, n)
	}
	br.Discard(4)
	size := int(n)
	frame = make([]byte, min(size, readChunk))
	for have := 0; ; {
		if _, err := io.ReadFull(br, frame[have:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, true, err
		}
		have = len(frame)
		if have == size {
			return frame, true, nil
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

// replyOf maps a response status and payload to what Invoke returns; both
// transports go through it, so an error reads the same over TCP and local:.
func replyOf(status byte, payload []byte) ([]byte, error) {
	switch status {
	case statusOK:
		return payload, nil
	case statusNoObject:
		return nil, fmt.Errorf("%w: %q", ErrNoObject, payload)
	case statusError:
		return nil, errors.New(string(payload))
	default:
		return nil, fmt.Errorf("%w: unknown response status %d", errFrame, status)
	}
}
