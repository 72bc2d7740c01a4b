package fompi_test

// The symmetric storm: both ranks of a 2-rank job fire a burst of 1 MiB
// request-based gets and puts at each other with no flush in between, far
// more than a socket buffer, a TCP submit queue or a segment's bulk region
// holds. Each rank's receive side then has to send get responses and acks
// into a link its own rank goroutine is already filling. A receive path
// that parks on such a reply stops reading, the peer's does the same, and
// the job wedges; these tests fail instead of hanging.

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/fompi"
)

const (
	stormOps   = 48
	stormBytes = 1 << 20
)

func stormPattern(rank int) []byte {
	b := make([]byte, stormBytes)
	for i := range b {
		b[i] = byte(i*13 + rank*101 + 7)
	}
	return b
}

// stormBody lays out a 2 MiB window per rank: [0, 1 MiB) is the get source,
// filled with the rank's pattern before the storm; [1 MiB, 2 MiB) is where
// the partner's puts land. Every get is checked byte for byte, then the
// put landing slot.
func stormBody(p *fompi.Proc) {
	win := p.WinAllocate(2 * stormBytes)
	defer win.Free()
	partner := 1 - p.Rank()
	copy(win.Buffer(), stormPattern(p.Rank()))
	p.Barrier()

	src := stormPattern(p.Rank() + 2)
	dsts := make([][]byte, stormOps)
	var ops []*fompi.OpHandle
	for k := range dsts {
		dsts[k] = make([]byte, stormBytes)
		ops = append(ops, win.RGet(partner, 0, dsts[k]), win.RPut(partner, stormBytes, src))
	}
	for _, h := range ops {
		h.Wait()
	}
	want := stormPattern(partner)
	for k, d := range dsts {
		if !bytes.Equal(d, want) {
			panic(fmt.Sprintf("rank %d: get %d returned wrong bytes", p.Rank(), k))
		}
	}
	p.Barrier()
	if !bytes.Equal(win.Buffer()[stormBytes:], stormPattern(partner+2)) {
		panic(fmt.Sprintf("rank %d: put landing slot holds wrong bytes", p.Rank()))
	}
}

func runStorm(t *testing.T, cluster func(fompi.Options, func(*fompi.Proc)) []error) {
	done := make(chan []error, 1)
	go func() { done <- cluster(fompi.Options{Ranks: 2}, stormBody) }()
	select {
	case errs := <-done:
		for r, err := range errs {
			if err != nil {
				t.Errorf("rank %d: %v", r, err)
			}
		}
	case <-time.After(60 * time.Second):
		t.Fatal("symmetric storm wedged: a send made from delivery parked the receive path")
	}
}

// TestDistSymmetricStormTCP runs the storm over loopback TCP.
func TestDistSymmetricStormTCP(t *testing.T) { runStorm(t, fompi.RunLocalCluster) }

// TestDistSymmetricStormShm runs the storm over shared-memory segment rings.
func TestDistSymmetricStormShm(t *testing.T) { runStorm(t, fompi.RunLocalShmCluster) }
