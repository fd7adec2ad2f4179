package mp

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/cluster"
)

// pattern fills a buffer with bytes that differ per (seed, offset).
func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*7)
	}
	return b
}

// TestRendezvousSendBufferReuse: once a rendezvous Send returns, the
// sender may overwrite its buffer without changing what the receiver
// got. On the in-process fabrics the payload was placed in the receive
// buffer before the send completed; on TCP, where no buffer can be
// lent across the socket, it was shipped in the RndvData.
func TestRendezvousSendBufferReuse(t *testing.T) {
	const size = 64 << 10 // above the eager threshold
	for name, cfg := range configs() {
		t.Run(name, func(t *testing.T) {
			err := Run(2, cfg, func(c *Comm) error {
				if c.Rank() == 0 {
					buf := pattern(size, 1)
					if err := c.Send(1, 1, buf); err != nil {
						return err
					}
					for i := range buf {
						buf[i] = 0xFF
					}
					return c.Send(1, 2, nil)
				}
				got := make([]byte, size)
				if _, err := c.Recv(0, 1, got); err != nil {
					return err
				}
				if _, err := c.Recv(0, 2, nil); err != nil {
					return err
				}
				if !bytes.Equal(got, pattern(size, 1)) {
					return errors.New("receiver saw the sender's later writes")
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPlacedRendezvousTruncation: a receive shorter than the message
// still fails with ErrTruncated and reports the bytes it holds, whether
// the receive was posted before the RTS arrived or matched it from the
// unexpected queue.
func TestPlacedRendezvousTruncation(t *testing.T) {
	placed := map[string]Config{
		"inproc": {Fabric: InProc, EagerThreshold: -1},
		"sim":    {Fabric: Sim, Model: cluster.BigIBCluster(), EagerThreshold: -1},
	}
	for name, cfg := range placed {
		for _, postFirst := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/posted=%v", name, postFirst), func(t *testing.T) {
				err := Run(2, cfg, func(c *Comm) error {
					msg := pattern(100, 3)
					if c.Rank() == 0 {
						if postFirst {
							// Wait until rank 1 has posted its receive.
							if _, err := c.Recv(1, 9, nil); err != nil {
								return err
							}
						}
						return c.Send(1, 1, msg)
					}
					buf := make([]byte, 10)
					var st Status
					var err error
					if postFirst {
						req, ierr := c.Irecv(0, 1, buf)
						if ierr != nil {
							return ierr
						}
						if err := c.Send(0, 9, nil); err != nil {
							return err
						}
						st, err = req.Wait()
					} else {
						if _, err := c.Probe(0, 1); err != nil {
							return err
						}
						st, err = c.Recv(0, 1, buf)
					}
					if !errors.Is(err, ErrTruncated) {
						return fmt.Errorf("err = %v, want ErrTruncated", err)
					}
					if st.Count != len(buf) {
						return fmt.Errorf("Count = %d, want %d", st.Count, len(buf))
					}
					if !bytes.Equal(buf, msg[:len(buf)]) {
						return fmt.Errorf("truncated payload %v, want prefix %v", buf, msg[:len(buf)])
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestRoundTripAllocation: a 1 MiB ping-pong on the in-process fabrics
// moves each payload with one copy and no per-message payload buffer,
// so a round trip allocates only protocol bookkeeping.
func TestRoundTripAllocation(t *testing.T) {
	const (
		size   = 1 << 20
		iters  = 20
		budget = 64 << 10 // bytes per round trip
	)
	in := map[string]Config{
		"inproc": {Fabric: InProc},
		"sim":    {Fabric: Sim, Model: cluster.BigIBCluster()},
	}
	for name, cfg := range in {
		t.Run(name, func(t *testing.T) {
			var perIter uint64
			err := Run(2, cfg, func(c *Comm) error {
				peer := 1 - c.Rank()
				out, want := pattern(size, byte(c.Rank())), pattern(size, byte(peer))
				got := make([]byte, size)
				trip := func() error {
					if c.Rank() == 0 {
						if err := c.Send(peer, 1, out); err != nil {
							return err
						}
						_, err := c.Recv(peer, 1, got)
						return err
					}
					if _, err := c.Recv(peer, 1, got); err != nil {
						return err
					}
					return c.Send(peer, 1, out)
				}
				if err := trip(); err != nil { // warm up maps and queues
					return err
				}
				var before, after runtime.MemStats
				if c.Rank() == 0 {
					runtime.ReadMemStats(&before)
				}
				for i := 0; i < iters; i++ {
					if err := trip(); err != nil {
						return err
					}
				}
				if c.Rank() == 0 {
					runtime.ReadMemStats(&after)
					perIter = (after.TotalAlloc - before.TotalAlloc) / iters
				}
				if !bytes.Equal(got, want) {
					return errors.New("round trip corrupted the payload")
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d B allocated per 1 MiB round trip", perIter)
			if perIter >= budget {
				t.Errorf("%d B allocated per 1 MiB round trip, want < %d", perIter, budget)
			}
		})
	}
}

// TestRecycledEagerBuffers: eager payloads wait in the unexpected queue
// in lent bounce buffers. Matching them in reverse order hands each
// buffer back to the pool while later-matched messages still wait, and
// new eager sends (here, to self) draw those buffers out again; every
// waiting message must keep its own bytes throughout.
func TestRecycledEagerBuffers(t *testing.T) {
	const n = 64
	size := func(i int) int { return 1 + i*97%4000 } // eager, several size classes
	for name, cfg := range configs() {
		if cfg.eager() < 0 {
			continue // blocking rendezvous sends cannot all sit unmatched
		}
		t.Run(name, func(t *testing.T) {
			err := Run(2, cfg, func(c *Comm) error {
				if c.Rank() == 0 {
					for i := 0; i < n; i++ {
						if err := c.Send(1, i, pattern(size(i), byte(i))); err != nil {
							return err
						}
					}
					return c.Send(1, n, nil)
				}
				// Tag n arrives last, so every other message is queued.
				if _, err := c.Recv(0, n, nil); err != nil {
					return err
				}
				buf := make([]byte, 4096)
				for i := n - 1; i >= 0; i-- {
					st, err := c.Recv(0, i, buf)
					if err != nil {
						return err
					}
					if st.Count != size(i) || !bytes.Equal(buf[:st.Count], pattern(size(i), byte(i))) {
						return fmt.Errorf("message %d corrupted after %d buffers were recycled", i, n-1-i)
					}
					// Draw the just-released buffer out for fresh traffic.
					if _, err := c.SendRecv(1, n+1, pattern(size(i), 0xA5), 1, n+1, buf); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
