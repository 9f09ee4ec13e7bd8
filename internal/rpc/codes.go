package rpc

import (
	"errors"
	"fmt"
)

// The failure codes. A call that fails carries one of these sentinels in its
// error chain, and only ErrApp says that another server would fail the same
// way (Retryable). A method names the code of its failure by wrapping the
// sentinel; an error that wraps none is ErrApp.
var (
	// ErrNoObject: what the call asked for is not on this server: the
	// object or method is not registered, or the server does not host the
	// service or hold the datum.
	ErrNoObject = errors.New("rpc: no such object")

	// ErrApp: the method ran and failed.
	ErrApp = errors.New("rpc: application error")

	// ErrUnavailable: no answer from the method: the dial failed, the
	// connection broke before the first response byte (the handler may or
	// may not have run), no local server has the address, the server
	// speaks another frame version, or it stopped under the queued call.
	ErrUnavailable = errors.New("rpc: peer unavailable")

	// ErrOverloaded: the server refused the call for want of room.
	ErrOverloaded = errors.New("rpc: server overloaded")
)

// Response statuses: the first byte of a response frame. Every status but
// statusOK is the code of a failure, the index of its sentinel in codes.
const (
	statusOK byte = iota
	statusApp
	statusNoObject
	statusUnavailable
	statusOverloaded
)

// codes is the failure table: the sentinel of each failure status. A server
// answers a method's error with the first status whose sentinel the error
// holds, statusApp when it holds none. ErrApp comes first, so a server codes
// an error app exactly when Retryable reads it so.
var codes = [...]error{
	statusApp:         ErrApp,
	statusNoObject:    ErrNoObject,
	statusUnavailable: ErrUnavailable,
	statusOverloaded:  ErrOverloaded,
}

// Retryable reports whether another server may succeed where err failed:
// always, unless err is a method's own failure (ErrApp). An error that never
// got a verdict from a method, such as a reply that does not decode, is
// retryable.
func Retryable(err error) bool { return !errors.Is(err, ErrApp) }

// remoteError is a failure as the caller of the method sees it: the server's
// text, unwrapping to the sentinel of its code.
type remoteError struct {
	text string
	code error
}

func (e *remoteError) Error() string { return e.text }
func (e *remoteError) Unwrap() error { return e.code }

// failure is the response to a call that failed with err: its code (see
// codes) and its text.
func failure(err error) (status byte, payload segments) {
	status = statusApp
	for s := statusApp; int(s) < len(codes); s++ {
		if errors.Is(err, codes[s]) {
			status = s
			break
		}
	}
	return status, segments{head: []byte(err.Error())}
}

// replyOf maps a response status and payload to what Invoke returns; both
// transports go through it, so an error reads the same over TCP and local:.
func replyOf(status byte, payload []byte) ([]byte, error) {
	switch {
	case status == statusOK:
		return payload, nil
	case int(status) < len(codes):
		return nil, &remoteError{text: string(payload), code: codes[status]}
	default:
		return nil, fmt.Errorf("%w: unknown response status %d", errFrame, status)
	}
}
