package rpc

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"
)

const (
	// maxIdlePerAddr caps the idle connections kept per address; a burst of
	// concurrent callers dials more and closes the surplus as it returns.
	maxIdlePerAddr = 8

	// idleReapAge is how long a connection may sit unused before a later call
	// (to any address) closes it, so sockets to peers that are never called
	// again do not accumulate.
	idleReapAge = 60 * time.Second
)

// clientConn is one persistent connection to a peer: the socket, its read
// buffer and, while pooled, the time it went idle.
type clientConn struct {
	net.Conn
	br        *bufio.Reader
	idleSince time.Time
}

// pool holds the idle connections of this process, per address, most
// recently used last. A call checks one out (or dials), owns it for one
// request/response exchange and puts it back: one call in flight per
// connection, so a large body never delays another call's reply.
var pool = struct {
	sync.Mutex
	idle  map[string][]*clientConn
	swept time.Time
}{idle: make(map[string][]*clientConn)}

// checkout takes the most recently used idle connection to addr, nil if
// there is none.
func checkout(addr string) *clientConn {
	pool.Lock()
	defer pool.Unlock()
	list := pool.idle[addr]
	n := len(list)
	if n == 0 {
		return nil
	}
	cc := list[n-1]
	list[n-1] = nil
	pool.idle[addr] = list[:n-1]
	return cc
}

// release returns a healthy connection to the pool, closing it instead when
// addr already holds maxIdlePerAddr. Once per idleReapAge it also closes
// every connection, to any address, that sat idle for longer than that.
func release(addr string, cc *clientConn) {
	now := time.Now()
	cc.idleSince = now
	var drop []*clientConn
	pool.Lock()
	if list := pool.idle[addr]; len(list) < maxIdlePerAddr {
		pool.idle[addr] = append(list, cc)
	} else {
		drop = append(drop, cc)
	}
	if now.Sub(pool.swept) > idleReapAge {
		pool.swept = now
		for a, list := range pool.idle {
			// Lists are in release order, so the expired ones lead.
			k := 0
			for k < len(list) && now.Sub(list[k].idleSince) > idleReapAge {
				k++
			}
			drop = append(drop, list[:k]...)
			if k == len(list) {
				delete(pool.idle, a)
			} else if k > 0 {
				n := copy(list, list[k:])
				clear(list[n:])
				pool.idle[a] = list[:n]
			}
		}
	}
	pool.Unlock()
	for _, c := range drop {
		c.Close()
	}
}

func dial(addr string) (*clientConn, error) {
	conn, err := net.DialTimeout("tcp", addr, DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("rpc: dialing %s: %w: %w", addr, ErrUnavailable, err)
	}
	return &clientConn{Conn: conn, br: newReader(conn)}, nil
}

// roundTrip sends one request and reads its response frame. started reports
// whether any response byte arrived before err.
func (cc *clientConn) roundTrip(header []byte, body segments) (frame []byte, started bool, err error) {
	if err := writeFrame(cc.Conn, header, body); err != nil {
		return nil, false, err
	}
	return readFrame(cc.br, minResponse)
}

// invokeTCP performs one call over a pooled connection. A pooled connection
// may have been closed by its peer (restarted, shut down, reaped) since its
// last use, which shows as a failure before the first response byte: only
// then, and only once, the call is repeated on a freshly dialled connection.
// A failure on a fresh connection, or after response bytes arrived, is final.
func invokeTCP(addr, object, method string, body segments) ([]byte, error) {
	header, err := requestHeader(object, method, body.size())
	if err != nil {
		return nil, err
	}
	cc := checkout(addr)
	reused := cc != nil
	if !reused {
		if cc, err = dial(addr); err != nil {
			return nil, err
		}
	}
	frame, started, err := cc.roundTrip(header, body)
	if err != nil && reused && !started {
		cc.Close()
		if cc, err = dial(addr); err != nil {
			return nil, err
		}
		frame, started, err = cc.roundTrip(header, body)
	}
	if err != nil {
		cc.Close()
		if !started {
			return nil, fmt.Errorf("rpc: no response from %s: %w: %w", addr, ErrUnavailable, err)
		}
		return nil, fmt.Errorf("rpc: receiving from %s: %w", addr, err)
	}
	release(addr, cc)
	payload := frame[1:]
	if len(payload) == 0 {
		payload = nil
	}
	return replyOf(frame[0], payload)
}
