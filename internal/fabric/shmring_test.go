package fabric

import (
	"bytes"
	"testing"

	"repro/internal/exec"
)

func TestShmRingWraparound(t *testing.T) {
	var r shmRing
	// Fill / drain across several wraps.
	seq := 0
	for round := 0; round < 5; round++ {
		n := RingCapacity/2 + round
		for i := 0; i < n; i++ {
			r.push(ringEntry{imm: uint32(seq)})
			seq++
		}
		for i := 0; i < n; i++ {
			e, ok := r.pop()
			if !ok {
				t.Fatalf("round %d: pop %d failed", round, i)
			}
			_ = e
		}
	}
	if _, ok := r.pop(); ok {
		t.Fatal("pop from empty ring")
	}
	if r.highWater < RingCapacity/2 {
		t.Fatalf("high water %d", r.highWater)
	}
}

func TestShmRingFIFO(t *testing.T) {
	var r shmRing
	for i := 0; i < 100; i++ {
		r.push(ringEntry{imm: uint32(i)})
	}
	for i := 0; i < 100; i++ {
		e, _ := r.pop()
		if e.imm != uint32(i) {
			t.Fatalf("pop %d: imm %d", i, e.imm)
		}
	}
}

func TestShmRingOverflowPanics(t *testing.T) {
	var r shmRing
	defer func() {
		if recover() == nil {
			t.Fatal("expected overflow panic")
		}
	}()
	for i := 0; i <= RingCapacity; i++ {
		r.push(ringEntry{})
	}
}

func TestInlineTransferLandsAtPoll(t *testing.T) {
	// Intra-node small notified put: the payload rides in the ring entry
	// and must appear in the window exactly when the consumer polls.
	env := exec.NewSimEnv()
	cfg := DefaultConfig(2)
	cfg.RanksPerNode = 2
	f := New(env, cfg)
	err := env.Run(2, func(p *exec.Proc) {
		nic := f.NIC(p.Rank())
		reg := nic.Register(make([]byte, 64))
		if p.Rank() == 0 {
			nic.Put(p, 1, reg.ID, 8, []byte("inline!"), WithImm(5)).Await(p)
		} else {
			nic.WaitDest(p)
			// Before polling, the data is still parked in the ring entry.
			if nic.RingHighWater() != 1 {
				t.Errorf("ring high water %d", nic.RingHighWater())
			}
			cqe, ok := nic.PollDest()
			if !ok || cqe.Imm != 5 || cqe.Len != 7 || cqe.Offset != 8 {
				t.Fatalf("cqe %+v ok=%v", cqe, ok)
			}
			if !bytes.Equal(reg.Bytes()[8:15], []byte("inline!")) {
				t.Fatalf("inline payload not committed: %q", reg.Bytes()[8:15])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLargeShmPutBypassesInline(t *testing.T) {
	// Payloads above the inline threshold use the memcpy path: data is in
	// the window at delivery, the ring entry carries no payload.
	env := exec.NewSimEnv()
	cfg := DefaultConfig(2)
	cfg.RanksPerNode = 2
	f := New(env, cfg)
	payload := bytes.Repeat([]byte{7}, 1000)
	err := env.Run(2, func(p *exec.Proc) {
		nic := f.NIC(p.Rank())
		reg := nic.Register(make([]byte, 1024))
		if p.Rank() == 0 {
			nic.Put(p, 1, reg.ID, 0, payload, WithImm(9)).Await(p)
			nic.PostMsg(p, 1, 7, MsgHdr{}, nil, false)
		} else {
			nic.WaitMsgClass(p, 7)
			// Data committed at delivery, before any poll.
			if !bytes.Equal(reg.Bytes()[:1000], payload) {
				t.Fatal("large payload not committed at delivery")
			}
			cqe, ok := nic.PollDest()
			if !ok || cqe.Imm != 9 {
				t.Fatalf("cqe %+v", cqe)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInterNodeNotificationsUseCQNotRing(t *testing.T) {
	env := exec.NewSimEnv()
	f := New(env, DefaultConfig(2)) // one rank per node
	err := env.Run(2, func(p *exec.Proc) {
		nic := f.NIC(p.Rank())
		reg := nic.Register(make([]byte, 16))
		if p.Rank() == 0 {
			nic.Put(p, 1, reg.ID, 0, []byte{1}, WithImm(3)).Await(p)
		} else {
			nic.WaitDest(p)
			if nic.RingHighWater() != 0 {
				t.Errorf("inter-node notification went through the ring")
			}
			if nic.DestHighWater() != 1 {
				t.Errorf("CQ high water %d", nic.DestHighWater())
			}
			nic.PollDest()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInlineThresholdClampedToEntryCapacity(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.InlineThreshold = 4096 // larger than a cache-line entry
	f := New(exec.NewSimEnv(), cfg)
	if f.cfg.InlineThreshold != RingInlineCapacity {
		t.Fatalf("threshold %d, want clamped to %d", f.cfg.InlineThreshold, RingInlineCapacity)
	}
}

func TestRingPreservesIntraNodeArrivalOrder(t *testing.T) {
	// Mixed inline and non-inline intra-node notifications from one origin
	// must pop in arrival order.
	env := exec.NewSimEnv()
	cfg := DefaultConfig(2)
	cfg.RanksPerNode = 2
	f := New(env, cfg)
	err := env.Run(2, func(p *exec.Proc) {
		nic := f.NIC(p.Rank())
		reg := nic.Register(make([]byte, 4096))
		if p.Rank() == 0 {
			nic.Put(p, 1, reg.ID, 0, []byte{1}, WithImm(0))                        // inline
			nic.Put(p, 1, reg.ID, 100, bytes.Repeat([]byte{2}, 500), WithImm(1))   // memcpy
			nic.Put(p, 1, reg.ID, 50, []byte{3, 3}, WithImm(2))                    // inline
			nic.Atomic(p, 1, reg.ID, 1024, AtomicFetchAdd, 1, 0, WithImm(3))       // atomic notify
			nic.Accumulate(p, 1, reg.ID, 2048, []float64{1}, AccumSum, WithImm(4)) // accum notify
		} else {
			for i := 0; i < 5; i++ {
				nic.WaitDest(p)
				cqe, _ := nic.PollDest()
				if cqe.Imm != uint32(i) {
					t.Fatalf("arrival %d: imm %d", i, cqe.Imm)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestShmRingBoundaryFullWrap(t *testing.T) {
	// Hold the ring at exactly full capacity while head walks all the way
	// around: pop one, push one, RingCapacity times over several laps.
	var r shmRing
	seq := 0
	for i := 0; i < RingCapacity; i++ {
		r.push(ringEntry{imm: uint32(seq)})
		seq++
	}
	expect := 0
	for lap := 0; lap < 3; lap++ {
		for i := 0; i < RingCapacity; i++ {
			e, ok := r.pop()
			if !ok || e.imm != uint32(expect) {
				t.Fatalf("lap %d pop %d: imm %d ok=%v want %d", lap, i, e.imm, ok, expect)
			}
			expect++
			r.push(ringEntry{imm: uint32(seq)})
			seq++
			if r.count != RingCapacity {
				t.Fatalf("count %d while holding the ring full", r.count)
			}
		}
	}
	if r.highWater != RingCapacity {
		t.Fatalf("high water %d, want %d", r.highWater, RingCapacity)
	}
	// Drain the final full ring and verify the tail is contiguous.
	for i := 0; i < RingCapacity; i++ {
		e, ok := r.pop()
		if !ok || e.imm != uint32(expect) {
			t.Fatalf("drain %d: imm %d ok=%v want %d", i, e.imm, ok, expect)
		}
		expect++
	}
	if _, ok := r.pop(); ok {
		t.Fatal("pop from empty ring after drain")
	}
}

func TestShmRingPopReleasesInlinePayload(t *testing.T) {
	// pop must clear the stored entry so the inline payload slice is not
	// pinned until the slot is overwritten a full lap later.
	var r shmRing
	r.push(ringEntry{imm: 1, inline: []byte{1, 2, 3}, pooled: true})
	slot := r.head
	if _, ok := r.pop(); !ok {
		t.Fatal("pop failed")
	}
	if r.entries[slot].inline != nil || r.entries[slot].pooled {
		t.Fatal("popped slot still references the inline payload")
	}
}

func TestShmRingSlowConsumerAtCapacity(t *testing.T) {
	// A consumer that never polls while the producer posts exactly
	// RingCapacity inline notified puts: the ring must reach (not exceed)
	// its boundary, and a drain afterwards must yield every payload intact
	// and in order.
	env := exec.NewSimEnv()
	cfg := DefaultConfig(2)
	cfg.RanksPerNode = 2
	f := New(env, cfg)
	err := env.Run(2, func(p *exec.Proc) {
		nic := f.NIC(p.Rank())
		reg := nic.Register(make([]byte, RingCapacity*8))
		barrier(f, p)
		if p.Rank() == 0 {
			for i := 0; i < RingCapacity; i++ {
				var payload [8]byte
				payload[0], payload[1] = byte(i), byte(i>>8)
				nic.Put(p, 1, reg.ID, i*8, payload[:], WithImm(uint32(i))).Detach()
			}
			nic.FlushAll(p)
			nic.PostMsg(p, 1, 7, MsgHdr{}, nil, false)
		} else {
			nic.WaitMsgClass(p, 7)
			if hw := nic.RingHighWater(); hw != RingCapacity {
				t.Errorf("ring high water %d, want %d (boundary)", hw, RingCapacity)
			}
			for i := 0; i < RingCapacity; i++ {
				cqe, ok := nic.PollDest()
				if !ok {
					t.Fatalf("poll %d: ring empty early", i)
				}
				if cqe.Imm != uint32(i) {
					t.Fatalf("poll %d: imm %d (order lost across wrap)", i, cqe.Imm)
				}
				b := reg.Bytes()[i*8:]
				if b[0] != byte(i) || b[1] != byte(i>>8) {
					t.Fatalf("poll %d: inline payload %v not committed", i, b[:2])
				}
			}
			if _, ok := nic.PollDest(); ok {
				t.Fatal("extra notification after draining the full ring")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
