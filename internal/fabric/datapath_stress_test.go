package fabric

import (
	"bytes"
	"math"
	grt "runtime"
	"sync/atomic"
	"testing"

	"repro/internal/exec"
)

// TestPutHotPathZeroAlloc asserts the steady-state put fast path is
// allocation-free: with the transfer-buffer pool, packet pool, and op
// freelist warm, a detached put and its full remote round trip (commit at
// the target, ack back, op recycle) must not allocate. AllocsPerRun counts
// process-wide mallocs, so the delivery workers' side of the round trip is
// included in the assertion.
func TestPutHotPathZeroAlloc(t *testing.T) {
	env := exec.New(exec.Real)
	f := New(env, DefaultConfig(2))
	defer f.Close()
	f.NIC(1).Register(make([]byte, 8192))
	err := env.Run(1, func(p *exec.Proc) {
		nic := f.NIC(0)
		buf := make([]byte, 4096)
		settle := func() {
			for nic.Pending(1) > 0 {
				grt.Gosched()
			}
		}
		// Warm the pools: buffers, packets, and op handles all recycle at
		// completion, so a short burst reaches steady state.
		for i := 0; i < 64; i++ {
			nic.Put(nil, 1, 0, 0, buf, Imm{}).Detach()
		}
		settle()
		avg := testing.AllocsPerRun(200, func() {
			nic.Put(nil, 1, 0, 0, buf, Imm{}).Detach()
			settle() // completes the round trip so every resource recycles
		})
		if avg >= 1 {
			t.Errorf("steady-state put allocates %.2f allocs/op, want 0", avg)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// countSink counts the notifications it is handed.
type countSink struct{ n atomic.Int64 }

func (s *countSink) Deliver(CQE) { s.n.Add(1) }

// TestNotifiedPutHotPathZeroAlloc is TestPutHotPathZeroAlloc with a
// notification: with the pools warm, an 8 B notified put's round trip,
// its CQE handed to the region's sink at delivery included, must not
// allocate.
func TestNotifiedPutHotPathZeroAlloc(t *testing.T) {
	env := exec.New(exec.Real)
	f := New(env, DefaultConfig(2))
	defer f.Close()
	reg := f.NIC(1).Register(make([]byte, 64))
	var sink countSink
	if early := f.NIC(1).InstallNotifySink(reg.ID, &sink); len(early) != 0 {
		t.Fatalf("%d notifications before any put", len(early))
	}
	err := env.Run(1, func(p *exec.Proc) {
		nic := f.NIC(0)
		buf := make([]byte, 8)
		settle := func() {
			for nic.Pending(1) > 0 {
				grt.Gosched()
			}
		}
		for i := 0; i < 64; i++ {
			nic.Put(nil, 1, reg.ID, 0, buf, WithImm(uint32(i))).Detach()
		}
		settle()
		avg := testing.AllocsPerRun(200, func() {
			nic.Put(nil, 1, reg.ID, 0, buf, WithImm(7)).Detach()
			settle()
		})
		if avg >= 1 {
			t.Errorf("steady-state notified put allocates %.2f allocs/op, want 0", avg)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sink.n.Load(), int64(64+201); got != want { // AllocsPerRun adds one warm-up call
		t.Fatalf("sink counted %d notifications, want %d", got, want)
	}
}

// TestDataPathStressNoAliasing storms one consumer NIC with concurrent
// Put/Get/Accumulate traffic from several producers against overlapping
// and disjoint regions, with pooled buffers recycling throughout. It
// asserts the two ownership invariants pooling must preserve:
//
//   - a put's source buffer is free for reuse the moment Put returns
//     (the payload was staged), so scribbling it immediately never
//     corrupts what the target commits;
//   - a completed get's destination is never aliased by a recycled
//     buffer — once the op is done, later traffic must not change it.
//
// Run under -race this also exercises the sharded region locks: disjoint
// slots commit concurrently on different per-origin workers, and the
// overlapping region serializes only on its own lock.
func TestDataPathStressNoAliasing(t *testing.T) {
	const (
		producers = 4
		ranks     = producers + 1
		slot      = 512
		rounds    = 60
	)
	env := exec.New(exec.Real)
	cfg := DefaultConfig(ranks)
	f := New(env, cfg)
	defer f.Close()
	// Region 0: disjoint per-producer slots. Region 1: deliberately
	// overlapped by every producer. Region 2: accumulate slots.
	f.NIC(0).Register(make([]byte, producers*slot))
	f.NIC(0).Register(make([]byte, slot))
	regAcc := f.NIC(0).Register(make([]byte, producers*8))
	err := env.Run(ranks, func(p *exec.Proc) {
		if p.Rank() == 0 {
			return
		}
		nic := f.NIC(p.Rank())
		me := p.Rank() - 1
		src := make([]byte, slot)
		got := make([]byte, slot)
		for r := 0; r < rounds; r++ {
			want := byte(p.Rank()*31 + r)
			for i := range src {
				src[i] = want
			}
			nic.Put(nil, 0, 0, me*slot, src, Imm{}).Detach()
			// The payload was staged: the source is ours again already.
			for i := range src {
				src[i] = 0xEE
			}
			// Overlapping traffic: all producers hammer region 1 offset 0.
			nic.Put(nil, 0, 1, 0, src[:64], Imm{}).Detach()
			nic.Accumulate(nil, 0, 2, me*8, []float64{1}, AccumSum, Imm{}).Detach()
			nic.Flush(p, 0)
			op := nic.Get(nil, 0, 0, me*slot, got, Imm{})
			op.Await(p)
			if !bytes.Equal(got, bytes.Repeat([]byte{want}, slot)) {
				t.Errorf("producer %d round %d: read back corrupted slot (got[0]=%#x want %#x)",
					p.Rank(), r, got[0], want)
				return
			}
			snapshot := append([]byte(nil), got...)
			// Storm more traffic through the pool, then confirm the
			// completed get's bytes were not aliased by recycling.
			for i := 0; i < 8; i++ {
				nic.Put(nil, 0, 1, 0, src[:128], Imm{}).Detach()
			}
			nic.Flush(p, 0)
			if !bytes.Equal(got, snapshot) {
				t.Errorf("producer %d round %d: completed get buffer mutated after further traffic",
					p.Rank(), r)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Accumulate sums survived the storm: every producer added 1 per round
	// into its own slot.
	for i := 0; i < producers; i++ {
		got := math.Float64frombits(regAcc.Load64(i * 8))
		if got != rounds {
			t.Errorf("accumulate slot %d: got %v, want %d", i, got, rounds)
		}
	}
	// Pool balance: the run flushed every op, so with the fabric quiesced
	// each staged payload must be back in its freelist — any shortfall is a
	// buffer leaked on a completion or abort path.
	ps := f.PoolStats()
	if ps.Gets-ps.Oversize != ps.Returns {
		t.Errorf("pool imbalance after quiesce: gets=%d oversize=%d returns=%d (%d buffers leaked)",
			ps.Gets, ps.Oversize, ps.Returns, ps.Gets-ps.Oversize-ps.Returns)
	}
	// Steady-state traffic of a few fixed sizes must recycle, not allocate.
	if hr := ps.HitRate(); hr < 0.5 {
		t.Errorf("pool hit rate %.2f, want >= 0.5 (recycling broken)", hr)
	}
}
