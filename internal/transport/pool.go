package transport

import (
	"math/bits"
	"sync"
)

// Bounce buffers. An eager payload has to be copied out of the sender's
// buffer before Send returns (MPI buffered-send semantics), so the
// in-process fabrics copy it into a bounce buffer lent from one of
// these power-of-two size-class pools; the TCP fabric reads incoming
// payloads into them. The receiver hands the buffer back with
// Packet.Release once it has copied the payload out, so a steady
// stream of eager messages reuses the same few buffers instead of
// allocating one per message.
const (
	minClassShift = 6  // smallest class: 64 B
	maxClassShift = 22 // largest class: 4 MiB; bigger payloads are not pooled
)

var bouncePools [maxClassShift - minClassShift + 1]sync.Pool

// sizeClass returns the pool index whose buffers hold n bytes, or -1 if
// n is too large to pool.
func sizeClass(n int) int {
	shift := bits.Len(uint(n - 1))
	if shift < minClassShift {
		shift = minClassShift
	}
	if shift > maxClassShift {
		return -1
	}
	return shift - minClassShift
}

// lendBuffer returns a buffer of length n. The pointer is what goes back
// to the pool (nil when n is too large to pool); keeping it with the
// payload lets Release return the buffer without allocating.
func lendBuffer(n int) ([]byte, *[]byte) {
	c := sizeClass(n)
	if c < 0 {
		return make([]byte, n), nil
	}
	bp, _ := bouncePools[c].Get().(*[]byte)
	if bp == nil {
		b := make([]byte, 1<<(c+minClassShift))
		bp = &b
	}
	return (*bp)[:n], bp
}

// bounce replaces p.Data with a copy in a lent buffer, so the sender's
// buffer is free again as soon as Send returns.
func (p *Packet) bounce() {
	buf, bp := lendBuffer(len(p.Data))
	copy(buf, p.Data)
	p.Data, p.lent = buf, bp
}

// Release hands a payload buffer the transport lent back to its pool.
// The receiver calls it once it has copied Data out; Data must not be
// read afterwards. It is a no-op for packets whose payload the
// transport did not lend, and for a second call on the same packet.
func (p *Packet) Release() {
	if p.lent == nil {
		return
	}
	bouncePools[sizeClass(cap(*p.lent))].Put(p.lent)
	p.Data, p.lent = nil, nil
}
