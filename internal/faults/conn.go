package faults

import (
	"io"
	"net"
	"sync/atomic"
	"time"
)

// ChaosConn wraps a net.Conn with schedule-driven faults on every Read and
// Write. Deadlines and addresses pass through to the wrapped conn, so the
// system under test sees an ordinary — if deeply unlucky — peer.
type ChaosConn struct {
	net.Conn
	in *injector
	applied

	closed atomic.Bool
}

// WrapConn applies a fault schedule to conn.
func WrapConn(conn net.Conn, s Schedule) *ChaosConn {
	return &ChaosConn{Conn: conn, in: newInjector(s)}
}

// applied counts faults actually applied, by Action.
type applied [ActError + 1]atomic.Uint64

func (c *applied) note(a Action) { c[a].Add(1) }

// Injected reports how many faults of each kind have been applied.
func (c *applied) Injected() map[Action]uint64 {
	out := make(map[Action]uint64)
	for a := ActLatency; a <= ActError; a++ {
		if n := c[a].Load(); n > 0 {
			out[a] = n
		}
	}
	return out
}

func (c *ChaosConn) Read(b []byte) (int, error) {
	return c.in.read(b, c.Conn.Read, func() {
		c.closed.Store(true)
		c.Conn.Close()
	}, c.note)
}

// read applies the next read decision to one read call: kill tears the
// stream down on an injected truncation, and note counts each fault
// applied.
func (in *injector) read(b []byte, read func([]byte) (int, error), kill func(), note func(Action)) (int, error) {
	switch a := in.decide(OpRead); a {
	case ActStall:
		note(a)
		time.Sleep(in.sched.Stall)
	case ActLatency:
		note(a)
		time.Sleep(in.sched.Latency)
	case ActError:
		note(a)
		return 0, ErrInjected
	case ActTruncate:
		note(a)
		kill()
		return 0, io.ErrUnexpectedEOF
	case ActPartial:
		if len(b) > 1 {
			note(a)
			b = b[:1]
		}
	case ActBitFlip:
		n, err := read(b)
		if n > 0 {
			note(a)
			i, bit := in.flipBit(n)
			b[i] ^= 1 << bit
		}
		return n, err
	}
	return read(b)
}

func (c *ChaosConn) Write(b []byte) (int, error) {
	switch a := c.in.decide(OpWrite); a {
	case ActStall:
		c.note(a)
		time.Sleep(c.in.sched.Stall)
	case ActLatency:
		c.note(a)
		time.Sleep(c.in.sched.Latency)
	case ActError:
		c.note(a)
		return 0, ErrInjected
	case ActTruncate:
		c.note(a)
		c.closed.Store(true)
		c.Conn.Close()
		return 0, net.ErrClosed
	case ActPartial:
		if len(b) > 1 {
			c.note(a)
			n, err := c.Conn.Write(b[:1])
			if err != nil {
				return n, err
			}
			// A short Write must return an error by contract; report how far
			// we got and let the caller's framing fail or retry.
			return n, io.ErrShortWrite
		}
	case ActBitFlip:
		if len(b) > 0 {
			c.note(a)
			dup := make([]byte, len(b))
			copy(dup, b)
			i, bit := c.in.flipBit(len(dup))
			dup[i] ^= 1 << bit
			return c.Conn.Write(dup)
		}
	}
	return c.Conn.Write(b)
}

// Close is idempotent-safe around injected truncations.
func (c *ChaosConn) Close() error {
	c.closed.Store(true)
	return c.Conn.Close()
}

// ChaosReader applies a schedule's read faults to a stream that is not a
// connection, such as an HTTP message body. A bit flipped at the
// connection can land in framing the receiver never reads (an HTTP header
// it ignores), leaving the exchange intact; one flipped here always lands
// in the payload.
type ChaosReader struct {
	r  io.ReadCloser
	in *injector
	applied
}

// WrapReader applies a fault schedule to r's reads.
func WrapReader(r io.ReadCloser, s Schedule) *ChaosReader {
	return &ChaosReader{r: r, in: newInjector(s)}
}

func (c *ChaosReader) Read(b []byte) (int, error) {
	return c.in.read(b, c.r.Read, func() { c.r.Close() }, c.note)
}

// Close closes the underlying stream.
func (c *ChaosReader) Close() error { return c.r.Close() }
