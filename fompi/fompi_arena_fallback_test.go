package fompi_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/fompi"
)

// TestShmArenaFallbackCounted allocates, on the in-process shm cluster, a
// window larger than a rank's whole window arena: RegisterWindow puts it
// on the heap, QueueStats.ArenaFallbacks counts it (and not the small
// window beside it), and the window still works, its puts and gets
// travelling as frames.
func TestShmArenaFallbackCounted(t *testing.T) {
	const big = 20 << 20 // past the 16 MiB arena
	var fallbacks [2][2]int64
	errs := fompi.RunLocalShmCluster(fompi.Options{Ranks: 2}, func(p *fompi.Proc) {
		fallbacks[p.Rank()][0] = p.QueueStats().ArenaFallbacks
		small := p.WinAllocate(4 << 10)
		defer small.Free()
		win := p.WinAllocate(big)
		defer win.Free()
		fallbacks[p.Rank()][1] = p.QueueStats().ArenaFallbacks
		partner := 1 - p.Rank()
		req := win.NotifyInit(partner, 5, 1)
		defer req.Free()
		data := bytes.Repeat([]byte{byte(0x40 + p.Rank())}, 64<<10)
		win.PutNotify(partner, big-len(data), data, 5)
		win.Flush(partner)
		req.Start()
		req.Wait()
		want := bytes.Repeat([]byte{byte(0x40 + partner)}, len(data))
		if got := win.Buffer()[big-len(data):]; !bytes.Equal(got, want) {
			panic(fmt.Sprintf("rank %d: the put into the heap window did not land", p.Rank()))
		}
		p.Barrier()
		got := make([]byte, len(data))
		win.Get(partner, big-len(data), got)
		win.Flush(partner)
		if !bytes.Equal(got, data) {
			panic(fmt.Sprintf("rank %d: the get from the partner's heap window read the wrong bytes", p.Rank()))
		}
		p.Barrier()
	})
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	for r, f := range fallbacks {
		if f[1]-f[0] != 1 {
			t.Errorf("rank %d: ArenaFallbacks %d before the windows, %d after; want one more", r, f[0], f[1])
		}
	}
}
