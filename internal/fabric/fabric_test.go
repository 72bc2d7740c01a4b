package fabric

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/exec"
	"repro/internal/loggp"
	"repro/internal/simtime"
)

// runBoth executes body over a fresh fabric under both engines.
func runBoth(t *testing.T, ranks int, body func(f *Fabric, p *exec.Proc)) {
	t.Helper()
	for _, mode := range []exec.Mode{exec.Sim, exec.Real} {
		t.Run(mode.String(), func(t *testing.T) {
			env := exec.New(mode)
			f := New(env, DefaultConfig(ranks))
			defer f.Close()
			if err := env.Run(ranks, func(p *exec.Proc) { body(f, p) }); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// barrier synchronizes all ranks via ctrl messages (registration must
// complete on every rank before remote access starts, mirroring real RDMA
// rkey exchange).
func barrier(f *Fabric, p *exec.Proc) {
	const class = 99990
	nic := f.NIC(p.Rank())
	n := f.Ranks()
	if n == 1 {
		return
	}
	if p.Rank() == 0 {
		for i := 1; i < n; i++ {
			nic.WaitMsgClass(p, class)
		}
		for i := 1; i < n; i++ {
			nic.PostMsg(p, i, class+1, MsgHdr{}, nil, false)
		}
	} else {
		nic.PostMsg(p, 0, class, MsgHdr{}, nil, false)
		nic.WaitMsgClass(p, class+1)
	}
}

func TestPutDeliversDataAndNotification(t *testing.T) {
	runBoth(t, 2, func(f *Fabric, p *exec.Proc) {
		nic := f.NIC(p.Rank())
		buf := make([]byte, 64)
		reg := nic.Register(buf)
		sink := sinkOn(reg)
		barrier(f, p)
		if p.Rank() == 0 {
			payload := []byte("hello, notified access!")
			op := nic.Put(p, 1, reg.ID, 8, payload, WithImm(0xdeadbeef))
			op.Await(p)
			if !op.Done() {
				t.Error("op not done after Await")
			}
		} else {
			cqe := sink.wait(p)
			if cqe.Imm != 0xdeadbeef || cqe.Origin != 0 || cqe.Kind != OpPut {
				t.Fatalf("cqe = %+v", cqe)
			}
			if cqe.Offset != 8 || cqe.Len != 23 {
				t.Fatalf("cqe geometry = %+v", cqe)
			}
			got := reg.Bytes()[8 : 8+23]
			if !bytes.Equal(got, []byte("hello, notified access!")) {
				t.Fatalf("data = %q", got)
			}
		}
	})
}

func TestPutWithoutImmNoNotification(t *testing.T) {
	runBoth(t, 2, func(f *Fabric, p *exec.Proc) {
		nic := f.NIC(p.Rank())
		reg := nic.Register(make([]byte, 16))
		sink := sinkOn(reg)
		barrier(f, p)
		if p.Rank() == 0 {
			nic.Put(p, 1, reg.ID, 0, []byte{1, 2, 3}, Imm{}).Await(p)
			// Signal completion to rank 1 via a ctrl message.
			nic.PostMsg(p, 1, 7, MsgHdr{}, nil, false)
		} else {
			nic.WaitMsgClass(p, 7)
			if cqe, ok := sink.poll(); ok {
				t.Errorf("unexpected CQE %+v for un-notified put", cqe)
			}
			if reg.Bytes()[0] != 1 {
				t.Error("data not delivered")
			}
		}
	})
}

func TestGetReadsRemoteAndNotifiesTarget(t *testing.T) {
	runBoth(t, 2, func(f *Fabric, p *exec.Proc) {
		nic := f.NIC(p.Rank())
		buf := make([]byte, 32)
		if p.Rank() == 1 {
			for i := range buf {
				buf[i] = byte(i * 3)
			}
		}
		reg := nic.Register(buf)
		sink := sinkOn(reg)
		barrier(f, p)
		if p.Rank() == 0 {
			dst := make([]byte, 16)
			op := nic.Get(p, 1, reg.ID, 4, dst, WithImm(42))
			op.Await(p)
			for i := range dst {
				if dst[i] != byte((i+4)*3) {
					t.Fatalf("dst[%d] = %d", i, dst[i])
				}
			}
			nic.PostMsg(p, 1, 7, MsgHdr{}, nil, false)
		} else {
			// The data holder gets the buffer-reusable notification.
			cqe := sink.wait(p)
			if cqe.Imm != 42 || cqe.Kind != OpGet || cqe.Origin != 0 {
				t.Fatalf("cqe = %+v", cqe)
			}
			nic.WaitMsgClass(p, 7)
		}
	})
}

func TestAtomicFetchAdd(t *testing.T) {
	runBoth(t, 3, func(f *Fabric, p *exec.Proc) {
		nic := f.NIC(p.Rank())
		buf := make([]byte, 8)
		reg := nic.Register(buf)
		barrier(f, p)
		if p.Rank() != 0 {
			const iters = 50
			for i := 0; i < iters; i++ {
				op := nic.Atomic(p, 0, reg.ID, 0, AtomicFetchAdd, 1, 0, Imm{})
				op.Await(p)
				if op.Result() >= uint64(2*iters) {
					t.Errorf("fetched value %d out of range", op.Result())
				}
			}
			nic.PostMsg(p, 0, 7, MsgHdr{}, nil, false)
		} else {
			for done := 0; done < 2; done++ {
				nic.WaitMsgClass(p, 7)
			}
			if v := binary.LittleEndian.Uint64(reg.Bytes()); v != 100 {
				t.Fatalf("counter = %d, want 100", v)
			}
		}
	})
}

func TestAtomicCAS(t *testing.T) {
	runBoth(t, 2, func(f *Fabric, p *exec.Proc) {
		nic := f.NIC(p.Rank())
		buf := make([]byte, 8)
		reg := nic.Register(buf)
		barrier(f, p)
		if p.Rank() == 0 {
			op := nic.Atomic(p, 1, reg.ID, 0, AtomicCAS, 99, 0, Imm{})
			op.Await(p)
			if op.Result() != 0 {
				t.Fatalf("first CAS old = %d", op.Result())
			}
			op = nic.Atomic(p, 1, reg.ID, 0, AtomicCAS, 77, 0, Imm{})
			op.Await(p)
			if op.Result() != 99 {
				t.Fatalf("second CAS old = %d (should fail, value 99)", op.Result())
			}
			nic.PostMsg(p, 1, 7, MsgHdr{}, nil, false)
		} else {
			nic.WaitMsgClass(p, 7)
			if v := binary.LittleEndian.Uint64(reg.Bytes()); v != 99 {
				t.Fatalf("value = %d, want 99 (second CAS must not apply)", v)
			}
		}
	})
}

func TestAccumulateSumAndReplace(t *testing.T) {
	runBoth(t, 2, func(f *Fabric, p *exec.Proc) {
		nic := f.NIC(p.Rank())
		buf := make([]byte, 32)
		reg := nic.Register(buf)
		sink := sinkOn(reg)
		barrier(f, p)
		if p.Rank() == 0 {
			nic.Accumulate(p, 1, reg.ID, 0, []float64{1, 2, 3, 4}, AccumSum, Imm{}).Await(p)
			nic.Accumulate(p, 1, reg.ID, 0, []float64{10, 20, 30, 40}, AccumSum, Imm{}).Await(p)
			nic.Accumulate(p, 1, reg.ID, 8, []float64{-5}, AccumReplace, WithImm(5)).Await(p)
			nic.PostMsg(p, 1, 7, MsgHdr{}, nil, false)
		} else {
			nic.WaitMsgClass(p, 7)
			want := []float64{11, -5, 33, 44}
			for i, w := range want {
				got := lef64(reg.Bytes()[8*i:])
				if got != w {
					t.Fatalf("elem %d = %v, want %v", i, got, w)
				}
			}
			if cqe, ok := sink.poll(); !ok || cqe.Imm != 5 || cqe.Kind != OpAccum {
				t.Fatalf("accumulate notification: %+v ok=%v", cqe, ok)
			}
		}
	})
}

func lef64(b []byte) float64 {
	return mathFromBits(binary.LittleEndian.Uint64(b))
}

func TestFlushWaitsForRemoteCompletion(t *testing.T) {
	// Sim engine: verify the modeled timings — put visible at o_s + L + G*s,
	// flush completes one ack latency later.
	env := exec.NewSimEnv()
	cfg := DefaultConfig(2)
	f := New(env, cfg)
	m := cfg.Model
	size := 1024
	err := env.Run(2, func(p *exec.Proc) {
		nic := f.NIC(p.Rank())
		reg := nic.Register(make([]byte, size))
		if p.Rank() != 0 {
			return
		}
		data := make([]byte, size)
		start := p.Now()
		nic.Put(p, 1, reg.ID, 0, data, Imm{})
		nic.Flush(p, 1)
		elapsed := p.Now().Sub(start)
		// o_s + wire(size) + ack L
		want := m.OSend + m.FMA.Time(size) + m.FMA.L
		if elapsed != want {
			t.Errorf("flush latency = %v, want %v", elapsed, want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSimPutLatencyMatchesLogGP(t *testing.T) {
	// The target observes the notification at exactly o_s + L + G*s.
	for _, size := range []int{8, 512, 4096, 65536} {
		env := exec.NewSimEnv()
		cfg := DefaultConfig(2)
		f := New(env, cfg)
		m := cfg.Model
		size := size
		err := env.Run(2, func(p *exec.Proc) {
			nic := f.NIC(p.Rank())
			reg := nic.Register(make([]byte, size))
			sink := sinkOn(reg)
			if p.Rank() == 0 {
				nic.Put(p, 1, reg.ID, 0, make([]byte, size), WithImm(1))
			} else {
				sink.wait(p)
				got := p.Now()
				want := simtime.Time(0).Add(m.OSend + m.Inter(size).Time(size))
				if got != want {
					t.Errorf("size %d: notified at %v, want %v", size, got, want)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestFMABTECrossoverAffectsLatency(t *testing.T) {
	f := New(exec.NewSimEnv(), DefaultConfig(2))
	if tr := f.Transport(0, 1, 8); tr != loggp.FMA {
		t.Errorf("small inter-node transport = %v", tr)
	}
	if tr := f.Transport(0, 1, 1<<20); tr != loggp.BTE {
		t.Errorf("large inter-node transport = %v", tr)
	}
}

func TestShmTopologyAndInline(t *testing.T) {
	env := exec.NewSimEnv()
	cfg := DefaultConfig(2)
	cfg.RanksPerNode = 2 // both ranks on one node
	f := New(env, cfg)
	if !f.SameNode(0, 1) {
		t.Fatal("ranks should share a node")
	}
	if tr := f.Transport(0, 1, 1<<20); tr != loggp.SHM {
		t.Fatalf("intra-node transport = %v", tr)
	}
	m := cfg.Model
	err := env.Run(2, func(p *exec.Proc) {
		nic := f.NIC(p.Rank())
		reg := nic.Register(make([]byte, 4096))
		sink := sinkOn(reg)
		if p.Rank() == 0 {
			// Inline-eligible: 16 bytes with imm — costs only L.
			nic.Put(p, 1, reg.ID, 0, make([]byte, 16), WithImm(1))
		} else {
			sink.wait(p)
			want := simtime.Time(0).Add(m.OSend + m.SHM.L)
			if p.Now() != want {
				t.Errorf("inline put notified at %v, want %v", p.Now(), want)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestShmLargePutNotInline(t *testing.T) {
	env := exec.NewSimEnv()
	cfg := DefaultConfig(2)
	cfg.RanksPerNode = 2
	f := New(env, cfg)
	m := cfg.Model
	size := 8192
	err := env.Run(2, func(p *exec.Proc) {
		nic := f.NIC(p.Rank())
		reg := nic.Register(make([]byte, size))
		sink := sinkOn(reg)
		if p.Rank() == 0 {
			nic.Put(p, 1, reg.ID, 0, make([]byte, size), WithImm(1))
		} else {
			sink.wait(p)
			want := simtime.Time(0).Add(m.OSend + m.SHM.Time(size))
			if p.Now() != want {
				t.Errorf("large shm put at %v, want %v", p.Now(), want)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// payloadSink records, inside each Deliver, the notification and the
// bytes the notified operation wrote: what a consumer matching at delivery
// would read.
type payloadSink struct {
	reg  *MemRegion
	cqes []CQE
	seen [][]byte
}

func (s *payloadSink) Deliver(cqe CQE) {
	s.cqes = append(s.cqes, cqe)
	s.seen = append(s.seen, bytes.Clone(s.reg.Bytes()[cqe.Offset:cqe.Offset+cqe.Len]))
}

// shmNotifiedPut runs one intra-node notified put of payload at off into a
// region of rank 1 and returns what its sink saw.
func shmNotifiedPut(t *testing.T, size, off int, payload []byte, imm uint32) *payloadSink {
	t.Helper()
	env := exec.NewSimEnv()
	cfg := DefaultConfig(2)
	cfg.RanksPerNode = 2
	f := New(env, cfg)
	reg := f.NIC(1).Register(make([]byte, size))
	sink := &payloadSink{reg: reg}
	f.NIC(1).InstallNotifySink(reg.ID, sink)
	err := env.Run(1, func(p *exec.Proc) {
		f.NIC(0).Put(p, 1, reg.ID, off, payload, WithImm(imm)).Await(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.cqes) != 1 {
		t.Fatalf("%d notifications, want 1", len(sink.cqes))
	}
	if cqe := sink.cqes[0]; cqe.Imm != imm || cqe.Offset != off || cqe.Len != len(payload) {
		t.Fatalf("cqe %+v", cqe)
	}
	return sink
}

// TestInlineTransferLandsAtPoll: a small intra-node notified put, one the
// Sim model prices as inline, has its payload in the window when its
// notification reaches the sink, where the consumer reads it.
func TestInlineTransferLandsAtPoll(t *testing.T) {
	payload := []byte("inline!")
	sink := shmNotifiedPut(t, 64, 8, payload, 5)
	if !bytes.Equal(sink.seen[0], payload) {
		t.Fatalf("inline payload not committed at its notification: %q", sink.seen[0])
	}
}

// TestLargeShmPutBypassesInline: a notified put above the inline size, a
// memcpy-priced one, has its payload in the window when its notification
// reaches the sink.
func TestLargeShmPutBypassesInline(t *testing.T) {
	payload := bytes.Repeat([]byte{7}, 1000)
	sink := shmNotifiedPut(t, 1024, 0, payload, 9)
	if !bytes.Equal(sink.seen[0], payload) {
		t.Fatal("large payload not committed at its notification")
	}
}

// TestIntraNodeNotificationsKeepArrivalOrder: mixed small and large puts,
// an atomic and an accumulate, all notified, from one origin reach the
// sink in arrival order.
func TestIntraNodeNotificationsKeepArrivalOrder(t *testing.T) {
	env := exec.NewSimEnv()
	cfg := DefaultConfig(2)
	cfg.RanksPerNode = 2
	f := New(env, cfg)
	err := env.Run(2, func(p *exec.Proc) {
		nic := f.NIC(p.Rank())
		reg := nic.Register(make([]byte, 4096))
		sink := sinkOn(reg)
		if p.Rank() == 0 {
			nic.Put(p, 1, reg.ID, 0, []byte{1}, WithImm(0))                        // inline-priced
			nic.Put(p, 1, reg.ID, 100, bytes.Repeat([]byte{2}, 500), WithImm(1))   // memcpy-priced
			nic.Put(p, 1, reg.ID, 50, []byte{3, 3}, WithImm(2))                    // inline-priced
			nic.Atomic(p, 1, reg.ID, 1024, AtomicFetchAdd, 1, 0, WithImm(3))       // atomic notify
			nic.Accumulate(p, 1, reg.ID, 2048, []float64{1}, AccumSum, WithImm(4)) // accum notify
			return
		}
		for i := 0; i < 5; i++ {
			if cqe := sink.wait(p); cqe.Imm != uint32(i) {
				t.Fatalf("arrival %d: imm %d", i, cqe.Imm)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEarlyNotificationsHandedOverInOrder: notifications that reach a
// region before it has a sink wait on the region, with their payloads
// committed, and InstallNotifySink hands all of them over in arrival
// order; a later one goes straight to the sink.
func TestEarlyNotificationsHandedOverInOrder(t *testing.T) {
	const early = 4096
	runBoth(t, 2, func(f *Fabric, p *exec.Proc) {
		nic := f.NIC(p.Rank())
		reg := nic.Register(make([]byte, early*8))
		barrier(f, p)
		if p.Rank() == 0 {
			for i := 0; i < early; i++ {
				var payload [8]byte
				payload[0], payload[1] = byte(i), byte(i>>8)
				nic.Put(p, 1, reg.ID, i*8, payload[:], WithImm(uint32(i))).Detach()
			}
			nic.FlushAll(p)
			nic.PostMsg(p, 1, 7, MsgHdr{}, nil, false)
			nic.WaitMsgClass(p, 8) // the sink is installed
			nic.Put(p, 1, reg.ID, 0, []byte{0}, WithImm(early)).Await(p)
			return
		}
		nic.WaitMsgClass(p, 7)
		for i := 0; i < early; i++ {
			b := reg.Bytes()[i*8:]
			if b[0] != byte(i) || b[1] != byte(i>>8) {
				t.Fatalf("put %d: payload %v not committed before the sink", i, b[:2])
			}
		}
		sink := sinkOn(reg)
		if len(sink.q) != early {
			t.Fatalf("handed over %d notifications, want %d", len(sink.q), early)
		}
		for i := 0; i < early; i++ {
			if cqe := sink.wait(p); cqe.Imm != uint32(i) || cqe.Offset != i*8 {
				t.Fatalf("handover %d: cqe %+v (arrival order lost)", i, cqe)
			}
		}
		nic.PostMsg(p, 0, 8, MsgHdr{}, nil, false)
		if cqe := sink.wait(p); cqe.Imm != early {
			t.Fatalf("after the handover: cqe %+v, want imm %d", cqe, early)
		}
	})
}

// TestSinkInstallRacesDelivery: producers stream notified puts into a
// region while its owner installs the sink. Every notification reaches
// the sink exactly once, each origin's in post order, whether it waited
// on the region or arrived after the handover.
func TestSinkInstallRacesDelivery(t *testing.T) {
	const producers, perProducer = 3, 300
	env := exec.NewRealEnv()
	f := New(env, DefaultConfig(producers+1))
	defer f.Close()
	reg := f.NIC(0).Register(make([]byte, 8))
	var sink *testSink
	err := env.Run(producers+1, func(p *exec.Proc) {
		if p.Rank() == 0 {
			for reg.Load64(0) < perProducer/2 {
				p.Yield() // let half of some stream arrive before the sink
			}
			sink = sinkOn(reg)
			next := make([]uint32, producers+1)
			for i := 0; i < producers*perProducer; i++ {
				cqe := sink.wait(p)
				if cqe.Imm != next[cqe.Origin] {
					t.Errorf("origin %d: notification %d arrived as number %d", cqe.Origin, cqe.Imm, next[cqe.Origin])
					return
				}
				next[cqe.Origin]++
			}
			return
		}
		nic := f.NIC(p.Rank())
		var v [8]byte
		for i := 0; i < perProducer; i++ {
			binary.LittleEndian.PutUint64(v[:], uint64(i+1))
			nic.Put(p, 0, reg.ID, 0, v[:], WithImm(uint32(i))).Detach()
		}
		nic.FlushAll(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if cqe, ok := sink.poll(); ok {
		t.Fatalf("extra notification %+v", cqe)
	}
}

func TestFIFOOrderingPerPair(t *testing.T) {
	// A large put followed by a small put from the same origin must arrive
	// in order even though the small one has lower wire time.
	env := exec.NewSimEnv()
	cfg := DefaultConfig(2)
	f := New(env, cfg)
	err := env.Run(2, func(p *exec.Proc) {
		nic := f.NIC(p.Rank())
		reg := nic.Register(make([]byte, 1<<20))
		sink := sinkOn(reg)
		if p.Rank() == 0 {
			nic.Put(p, 1, reg.ID, 0, make([]byte, 1<<19), WithImm(1)) // slow BTE
			nic.Put(p, 1, reg.ID, 0, make([]byte, 8), WithImm(2))     // fast FMA
		} else {
			first := sink.wait(p)
			second := sink.wait(p)
			if first.Imm != 1 || second.Imm != 2 {
				t.Errorf("out of order: %d then %d", first.Imm, second.Imm)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMsgClassMatching(t *testing.T) {
	runBoth(t, 2, func(f *Fabric, p *exec.Proc) {
		nic := f.NIC(p.Rank())
		if p.Rank() == 0 {
			nic.PostMsg(p, 1, 1, MsgHdr{1}, nil, false)
			nic.PostMsg(p, 1, 2, MsgHdr{2, -1, 1 << 62}, []byte("payload"), true)
			nic.PostMsg(p, 1, 1, MsgHdr{3}, nil, false)
		} else {
			// Wait for class 2 first: class-1 messages stay queued in
			// their own bucket.
			m2 := nic.WaitMsgClass(p, 2)
			if m2.Hdr != (MsgHdr{2, -1, 1 << 62}) || !bytes.Equal(m2.Data, []byte("payload")) || !m2.ChargeCopy {
				t.Fatalf("m2 = %+v", m2)
			}
			a := nic.WaitMsgClass(p, 1)
			b := nic.WaitMsgClass(p, 1)
			if a.Hdr[0] != 1 || b.Hdr[0] != 3 {
				t.Fatalf("order: %v, %v", a.Hdr, b.Hdr)
			}
			if d := nic.MsgDepth(); d != 0 {
				t.Fatalf("queue should be empty, depth %d", d)
			}
		}
	})
}

func TestCountersClassifyTraffic(t *testing.T) {
	env := exec.NewSimEnv()
	f := New(env, DefaultConfig(2))
	err := env.Run(2, func(p *exec.Proc) {
		nic := f.NIC(p.Rank())
		reg := nic.Register(make([]byte, 64))
		if p.Rank() == 0 {
			nic.Put(p, 1, reg.ID, 0, make([]byte, 32), WithImm(1)).Await(p)
			nic.Get(p, 1, reg.ID, 0, make([]byte, 16), Imm{}).Await(p)
			nic.Atomic(p, 1, reg.ID, 0, AtomicFetchAdd, 1, 0, Imm{}).Await(p)
			nic.PostMsg(p, 1, 9, MsgHdr{}, nil, false)
		} else {
			nic.WaitMsgClass(p, 9)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	s := f.Stats.Snapshot()
	if s.DataPackets != 2 { // 1 put + 1 get response
		t.Errorf("DataPackets = %d", s.DataPackets)
	}
	if s.GetRequests != 1 {
		t.Errorf("GetRequests = %d", s.GetRequests)
	}
	if s.AtomicPackets != 1 {
		t.Errorf("AtomicPackets = %d", s.AtomicPackets)
	}
	if s.CtrlPackets != 1 {
		t.Errorf("CtrlPackets = %d", s.CtrlPackets)
	}
	if s.AckPackets != 2 { // put ack + atomic response
		t.Errorf("AckPackets = %d", s.AckPackets)
	}
	diff := s.Sub(CounterSnapshot{})
	if diff.Total() != s.Total() || s.Total() != 7 {
		t.Errorf("Total = %d", s.Total())
	}
}

func TestPutOutOfBoundsPanics(t *testing.T) {
	env := exec.NewSimEnv()
	f := New(env, DefaultConfig(2))
	err := env.Run(2, func(p *exec.Proc) {
		nic := f.NIC(p.Rank())
		reg := nic.Register(make([]byte, 8))
		if p.Rank() == 0 {
			nic.Put(p, 1, reg.ID, 4, make([]byte, 8), Imm{}) // overruns
			nic.Flush(p, 1)
		}
	})
	if err == nil {
		t.Fatal("expected out-of-bounds panic to surface as run error")
	}
}

func TestInvalidTargetPanics(t *testing.T) {
	env := exec.NewSimEnv()
	f := New(env, DefaultConfig(2))
	err := env.Run(1, func(p *exec.Proc) {
		nic := f.NIC(0)
		reg := nic.Register(make([]byte, 8))
		nic.Put(p, 5, reg.ID, 0, []byte{1}, Imm{})
	})
	if err == nil {
		t.Fatal("expected panic for invalid target")
	}
}

func TestUnregisteredRegionPanics(t *testing.T) {
	env := exec.NewSimEnv()
	f := New(env, DefaultConfig(2))
	err := env.Run(2, func(p *exec.Proc) {
		if p.Rank() == 0 {
			nic := f.NIC(0)
			nic.Put(p, 1, 3, 0, []byte{1}, Imm{})
			nic.Flush(p, 1)
		}
	})
	if err == nil {
		t.Fatal("expected panic for unregistered region")
	}
}

func TestDeregister(t *testing.T) {
	env := exec.NewSimEnv()
	f := New(env, DefaultConfig(1))
	nic := f.NIC(0)
	r := nic.Register(make([]byte, 8))
	nic.Deregister(r)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic accessing deregistered region")
		}
	}()
	nic.region(r.ID)
}

func TestChargeOverheadsDisabled(t *testing.T) {
	env := exec.NewSimEnv()
	cfg := DefaultConfig(2)
	cfg.ChargeOverheads = false
	f := New(env, cfg)
	err := env.Run(2, func(p *exec.Proc) {
		nic := f.NIC(p.Rank())
		reg := nic.Register(make([]byte, 8))
		sink := sinkOn(reg)
		if p.Rank() == 0 {
			nic.Put(p, 1, reg.ID, 0, []byte{1}, WithImm(0))
			if p.Now() != 0 {
				t.Errorf("o_s charged despite ChargeOverheads=false")
			}
		} else {
			sink.wait(p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOpKindString(t *testing.T) {
	for k, want := range map[OpKind]string{OpPut: "put", OpGet: "get", OpAtomic: "atomic", OpAccum: "accum"} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", int(k), k.String())
		}
	}
	if OpKind(99).String() != "op(99)" {
		t.Error("unknown kind string")
	}
}

func TestFabricAccessors(t *testing.T) {
	env := exec.NewSimEnv()
	f := New(env, DefaultConfig(4))
	if f.Ranks() != 4 {
		t.Fatalf("Ranks = %d", f.Ranks())
	}
	if f.Model().FMA.L != loggp.DefaultCrayXC30().FMA.L {
		t.Fatal("Model mismatch")
	}
	if f.NIC(2).Rank() != 2 {
		t.Fatal("NIC rank")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for NIC out of range")
		}
	}()
	f.NIC(4)
}

func TestManyConcurrentPutsReal(t *testing.T) {
	// Stress the real engine: all ranks put to all ranks concurrently.
	env := exec.NewRealEnv()
	const ranks = 8
	f := New(env, DefaultConfig(ranks))
	defer f.Close()
	err := env.Run(ranks, func(p *exec.Proc) {
		nic := f.NIC(p.Rank())
		sink := sinkOn(nic.Register(make([]byte, 8*ranks)))
		barrier(f, p)
		for t := 0; t < ranks; t++ {
			if t == p.Rank() {
				continue
			}
			var v [8]byte
			binary.LittleEndian.PutUint64(v[:], uint64(p.Rank()+1))
			nic.Put(p, t, 0, 8*p.Rank(), v[:], WithImm(uint32(p.Rank()))).Await(p)
		}
		nic.FlushAll(p)
		// Collect ranks-1 notifications.
		seen := map[uint32]bool{}
		for i := 0; i < ranks-1; i++ {
			seen[sink.wait(p).Imm] = true
		}
		if len(seen) != ranks-1 {
			panic(fmt.Sprintf("rank %d saw %d distinct origins", p.Rank(), len(seen)))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func mathFromBits(u uint64) float64 { return math.Float64frombits(u) }
