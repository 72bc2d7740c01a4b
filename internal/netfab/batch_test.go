//go:build linux

package netfab

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestBatchedOrderAndPayload drives many concurrent senders through the
// queued writev tx path into the buffered rx framer over a Loopback mesh
// and asserts the stream contract: per-sender FIFO order and byte-exact
// payloads survive arbitrary coalescing. Run under -race this also
// exercises frames appended while another sender's flush holds the conn.
func TestBatchedOrderAndPayload(t *testing.T) {
	const (
		senders   = 8
		perSender = 400
	)
	meshes := loopback(t, 2)
	for _, m := range meshes {
		m.hb.Interval = time.Hour // no Beat frames: the stats below count data frames exactly
	}

	type rx struct {
		sender int
		index  int
		data   []byte
	}
	recvd := make(chan rx, senders*perSender)
	meshes[1].Start(func(from int, fr *wire.Frame) {
		if from != 0 || fr.Kind != wire.KindPut {
			t.Errorf("unexpected frame from %d kind %v", from, fr.Kind)
			return
		}
		recvd <- rx{
			sender: int(fr.OpID),
			index:  int(fr.Operand),
			data:   append([]byte(nil), fr.Data...),
		}
	}, func(rank int, err error) { t.Errorf("peerDown(%d): %v", rank, err) })
	meshes[0].Start(func(int, *wire.Frame) {}, func(rank int, err error) {
		t.Errorf("peerDown(%d): %v", rank, err)
	})

	// Each sender interleaves tiny and multi-KiB payloads so both the
	// write-at-once and the queued path get traffic; the
	// payload body encodes (sender, index) so corruption is detectable
	// beyond the header fields.
	payload := func(sender, index, size int) []byte {
		b := make([]byte, size)
		binary.LittleEndian.PutUint32(b, uint32(sender))
		binary.LittleEndian.PutUint32(b[4:], uint32(index))
		for i := 8; i < size; i++ {
			b[i] = byte(sender*31 + index + i)
		}
		return b
	}
	sizes := []int{8, 100, 8, 4096, 23, 8, 16384, 8}

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				size := sizes[(s+i)%len(sizes)]
				fr := &wire.Frame{
					Kind: wire.KindPut, Origin: 0, Target: 1,
					OpID: uint64(s), Operand: uint64(i),
					Data: payload(s, i, size),
				}
				if err := meshes[0].Send(1, fr); err != nil {
					t.Errorf("sender %d frame %d: %v", s, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	next := make([]int, senders)
	total := 0
	deadline := time.After(20 * time.Second)
	for total < senders*perSender {
		var r rx
		select {
		case r = <-recvd:
		case <-deadline:
			t.Fatalf("received %d/%d frames before timeout", total, senders*perSender)
		}
		if r.sender < 0 || r.sender >= senders {
			t.Fatalf("frame names sender %d", r.sender)
		}
		if r.index != next[r.sender] {
			t.Fatalf("sender %d: got index %d, want %d (FIFO order violated)",
				r.sender, r.index, next[r.sender])
		}
		next[r.sender]++
		size := sizes[(r.sender+r.index)%len(sizes)]
		want := payload(r.sender, r.index, size)
		if len(r.data) != len(want) {
			t.Fatalf("sender %d frame %d: %d bytes, want %d",
				r.sender, r.index, len(r.data), len(want))
		}
		for i := range want {
			if r.data[i] != want[i] {
				t.Fatalf("sender %d frame %d: payload corrupt at byte %d", r.sender, r.index, i)
			}
		}
		total++
	}

	// With 8 senders racing, batching must have engaged: fewer write
	// syscalls than frames on the tx side, and at least one multi-frame
	// read on the rx side. Stats are committed after a flush's WriteTo
	// returns, which can trail the receiver's dispatch: poll them settled.
	settle := time.Now().Add(5 * time.Second)
	tx := meshes[0].ReadStats()
	for tx.FramesSent < senders*perSender && time.Now().Before(settle) {
		time.Sleep(time.Millisecond)
		tx = meshes[0].ReadStats()
	}
	if tx.FramesSent < senders*perSender {
		t.Fatalf("FramesSent = %d, want >= %d", tx.FramesSent, senders*perSender)
	}
	if tx.TxFlushes == 0 || tx.TxFlushes >= tx.FramesSent {
		t.Errorf("no tx coalescing: %d flushes for %d frames", tx.TxFlushes, tx.FramesSent)
	}
	rxStats := meshes[1].ReadStats()
	if rxStats.FramesRecv != tx.FramesSent {
		t.Errorf("FramesRecv = %d, FramesSent = %d", rxStats.FramesRecv, tx.FramesSent)
	}
	multi := uint64(0)
	for b := 2; b < RxCoalesceBuckets; b++ { // buckets 2+: >= 2 frames per read
		multi += rxStats.RxCoalesce[b]
	}
	if multi == 0 {
		t.Errorf("no rx coalescing observed: histogram %v", rxStats.RxCoalesce)
	}

	var closeWG sync.WaitGroup
	for _, m := range meshes {
		closeWG.Add(1)
		go func() { defer closeWG.Done(); m.Close(true) }()
	}
	closeWG.Wait()
}
