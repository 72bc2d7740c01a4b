package fabric

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/simtime"
)

// lossyPlan is the canonical tier-1 fault scenario from the issue: 5% drop,
// 1% duplication, reordering, and a pinch of corruption.
func lossyPlan(seed uint64) *fault.Plan {
	return &fault.Plan{
		Seed:      seed,
		Drop:      0.05,
		Duplicate: 0.01,
		Reorder:   0.05,
		Corrupt:   0.005,
	}
}

// TestReliablePutsByteExactUnderLoss drives a ring of pipelined puts through
// the lossy wire and checks byte-exact delivery plus per-origin notification
// order on both engines.
func TestReliablePutsByteExactUnderLoss(t *testing.T) {
	const rounds = 40
	runBoth(t, 4, func(c *Config) { c.FaultPlan = lossyPlan(42) }, func(f *Fabric, p *exec.Proc) {
		nic := f.NIC(p.Rank())
		n := f.Ranks()
		buf := make([]byte, rounds*8)
		reg := nic.Register(buf)
		barrier(f, p)

		// Pipeline every put before flushing so drops and reordering hit a
		// full window of in-flight packets, not one lonely round trip.
		next := (p.Rank() + 1) % n
		for r := 0; r < rounds; r++ {
			var payload [8]byte
			binary.LittleEndian.PutUint64(payload[:], uint64(p.Rank())<<32|uint64(r))
			nic.Put(p, next, reg.ID, r*8, payload[:], WithImm(uint32(r))).Detach()
		}
		nic.FlushAll(p)

		prev := (p.Rank() + n - 1) % n
		for r := 0; r < rounds; r++ {
			nic.WaitDest(p)
			cqe, ok := nic.PollDest()
			if !ok {
				t.Fatal("WaitDest returned without a CQE")
			}
			// One origin per target: the stream must arrive in posted order.
			if cqe.Imm != uint32(r) {
				t.Fatalf("round %d: notification out of order, imm=%d", r, cqe.Imm)
			}
			if cqe.Origin != prev {
				t.Fatalf("round %d: origin=%d want %d", r, cqe.Origin, prev)
			}
		}
		for r := 0; r < rounds; r++ {
			got := binary.LittleEndian.Uint64(reg.Bytes()[r*8:])
			want := uint64(prev)<<32 | uint64(r)
			if got != want {
				t.Fatalf("slot %d: data %#x want %#x", r, got, want)
			}
		}

		barrier(f, p)
		if p.Rank() == 0 {
			st := f.FaultStats()
			if st.Injected.Dropped == 0 {
				t.Error("lossy plan injected no drops")
			}
			if st.Retransmits == 0 {
				t.Error("drops were injected but nothing was retransmitted")
			}
		}
	})
}

// TestReliableMsgStreamUnderLoss runs the message-queue path (checksummed
// payload bytes, consumer-recycled buffers) over the lossy wire.
func TestReliableMsgStreamUnderLoss(t *testing.T) {
	const msgs = 30
	const class = 7
	runBoth(t, 3, func(c *Config) { c.FaultPlan = lossyPlan(7) }, func(f *Fabric, p *exec.Proc) {
		nic := f.NIC(p.Rank())
		n := f.Ranks()
		barrier(f, p)
		next := (p.Rank() + 1) % n
		for i := 0; i < msgs; i++ {
			data := make([]byte, 96)
			for j := range data {
				data[j] = byte(i + j + p.Rank())
			}
			nic.PostMsg(p, next, class, MsgHdr{i}, data, false)
		}
		prev := (p.Rank() + n - 1) % n
		for i := 0; i < msgs; i++ {
			m := nic.WaitMsgClass(p, class)
			if m.Hdr[0] != i {
				t.Fatalf("msg %d: header %v (stream reordered or duplicated)", i, m.Hdr)
			}
			for j, b := range m.Data {
				if b != byte(i+j+prev) {
					t.Fatalf("msg %d byte %d: %#x want %#x", i, j, b, byte(i+j+prev))
				}
			}
			nic.RecycleMsgData(m)
		}
		barrier(f, p)
	})
}

// TestReliableExactlyOnceAtomics hammers one counter with fetch-adds under a
// duplication-heavy plan; any replayed side effect shows up as a wrong sum.
func TestReliableExactlyOnceAtomics(t *testing.T) {
	const perRank = 50
	plan := &fault.Plan{Seed: 99, Drop: 0.05, Duplicate: 0.2, Reorder: 0.1}
	runBoth(t, 3, func(c *Config) { c.FaultPlan = plan }, func(f *Fabric, p *exec.Proc) {
		nic := f.NIC(p.Rank())
		counter := make([]byte, 8)
		reg := nic.Register(counter)
		barrier(f, p)
		if p.Rank() != 0 {
			for i := 0; i < perRank; i++ {
				op := nic.Atomic(p, 0, reg.ID, 0, AtomicFetchAdd, 1, 0, Imm{})
				op.Await(p)
				if err := op.Err(); err != nil {
					t.Fatalf("fetch-add %d failed: %v", i, err)
				}
				op.Detach()
			}
		}
		barrier(f, p)
		if p.Rank() == 0 {
			got := binary.LittleEndian.Uint64(counter)
			want := uint64((f.Ranks() - 1) * perRank)
			if got != want {
				t.Fatalf("counter = %d, want %d (duplicate delivery?)", got, want)
			}
			st := f.FaultStats()
			if st.Injected.Duplicated == 0 {
				t.Error("duplication-heavy plan injected no duplicates")
			}
		}
	})
}

// TestReliableScriptedDropRetransmit drops exactly the first put with a
// scripted rule and checks the retransmission repairs it.
func TestReliableScriptedDropRetransmit(t *testing.T) {
	plan := &fault.Plan{
		Seed:  1,
		Rules: []fault.Rule{{Origin: 0, Target: 1, Class: "put", Nth: 1, Action: fault.Drop}},
	}
	runBoth(t, 2, func(c *Config) { c.FaultPlan = plan }, func(f *Fabric, p *exec.Proc) {
		nic := f.NIC(p.Rank())
		reg := nic.Register(make([]byte, 16))
		barrier(f, p)
		if p.Rank() == 0 {
			nic.Put(p, 1, reg.ID, 0, []byte("retransmit me!"), WithImm(5)).Await(p)
			st := f.FaultStats()
			if st.Retransmits < 1 {
				t.Errorf("retransmits = %d, want >= 1", st.Retransmits)
			}
			if st.Injected.Dropped != 1 {
				t.Errorf("injected drops = %d, want exactly 1 (scripted)", st.Injected.Dropped)
			}
		} else {
			nic.WaitDest(p)
			if _, ok := nic.PollDest(); !ok {
				t.Fatal("no CQE")
			}
			if got := string(reg.Bytes()[:14]); got != "retransmit me!" {
				t.Fatalf("data = %q", got)
			}
		}
		barrier(f, p)
	})
}

// TestReliableCorruptionRepair flips a payload bit in flight and checks the
// checksum catches it and the retransmission delivers clean bytes.
func TestReliableCorruptionRepair(t *testing.T) {
	plan := &fault.Plan{
		Seed:  1,
		Rules: []fault.Rule{{Origin: 0, Target: 1, Class: "put", Nth: 1, Action: fault.Corrupt}},
	}
	runBoth(t, 2, func(c *Config) { c.FaultPlan = plan }, func(f *Fabric, p *exec.Proc) {
		nic := f.NIC(p.Rank())
		reg := nic.Register(make([]byte, 16))
		barrier(f, p)
		if p.Rank() == 0 {
			nic.Put(p, 1, reg.ID, 0, []byte("bitflip bait"), WithImm(1)).Await(p)
		} else {
			nic.WaitDest(p)
			if _, ok := nic.PollDest(); !ok {
				t.Fatal("no CQE")
			}
			if got := string(reg.Bytes()[:12]); got != "bitflip bait" {
				t.Fatalf("delivered corrupt data: %q", got)
			}
		}
		barrier(f, p)
		if p.Rank() == 0 {
			st := f.FaultStats()
			if st.CorruptDropped < 1 {
				t.Errorf("corruptDropped = %d, want >= 1", st.CorruptDropped)
			}
			if st.Injected.Corrupted != 1 {
				t.Errorf("injected corruptions = %d, want exactly 1", st.Injected.Corrupted)
			}
		}
	})
}

// TestReliableCrashedRankUnblocksWaiters crashes a rank from the start and
// checks that (a) ops targeting it complete with ErrPeerFailed instead of
// hanging, (b) blocked waiters on the crashed rank unwind, and (c) under Sim
// the detection lands within the configured timeout budget.
func TestReliableCrashedRankUnblocksWaiters(t *testing.T) {
	for _, mode := range []exec.Mode{exec.Sim, exec.Real} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			env := exec.New(mode)
			c := DefaultConfig(3)
			c.FaultPlan = &fault.Plan{
				Seed:  3,
				Ranks: []fault.RankFault{{Rank: 2, Mode: fault.Crash}},
			}
			f := New(env, c)
			defer f.Close()
			budget := f.TimeoutBudget()
			err := env.Run(3, func(p *exec.Proc) {
				nic := f.NIC(p.Rank())
				reg := nic.Register(make([]byte, 8))
				switch p.Rank() {
				case 0, 1:
					start := p.Now()
					op := nic.Put(p, 2, reg.ID, 0, []byte{1}, WithImm(9))
					op.Await(p)
					opErr := op.Err()
					if opErr == nil {
						t.Error("put to crashed rank completed without error")
					} else if !errors.Is(opErr, ErrPeerFailed) {
						t.Errorf("op error %v does not unwrap to ErrPeerFailed", opErr)
					}
					if mode == exec.Sim {
						if elapsed := p.Now().Sub(start); elapsed > budget+3*c.Reliability.withDefaults().RTOMax {
							t.Errorf("detection took %v, budget %v", elapsed, budget)
						}
					}
				case 2:
					// The crashed rank's goroutine parks forever on a CQE
					// that can never arrive; the failure detector must
					// unwind it rather than deadlock the run.
					nic.WaitDest(p)
					t.Error("WaitDest on crashed rank returned normally")
				}
			})
			if err == nil {
				t.Fatal("run completed without surfacing the peer failure")
			}
			if !errors.Is(err, ErrPeerFailed) {
				t.Fatalf("run error %v does not unwrap to ErrPeerFailed", err)
			}
		})
	}
}

// TestReliableSendToFailedPeerFailsFast checks that, once the detector has
// declared a rank dead, new ops to it complete immediately with the error.
func TestReliableSendToFailedPeerFailsFast(t *testing.T) {
	env := exec.New(exec.Sim)
	c := DefaultConfig(2)
	c.FaultPlan = &fault.Plan{
		Seed:  5,
		Ranks: []fault.RankFault{{Rank: 1, Mode: fault.Crash}},
	}
	f := New(env, c)
	defer f.Close()
	err := env.Run(2, func(p *exec.Proc) {
		nic := f.NIC(p.Rank())
		reg := nic.Register(make([]byte, 8))
		if p.Rank() != 0 {
			return // crashed rank exits immediately; rank 0 must still detect it
		}
		first := nic.Put(p, 1, reg.ID, 0, []byte{1}, Imm{})
		first.Await(p)
		if !errors.Is(first.Err(), ErrPeerFailed) {
			t.Errorf("first op error = %v", first.Err())
		}
		if got := nic.PeerError(1); !errors.Is(got, ErrPeerFailed) {
			t.Errorf("PeerError(1) = %v after detection", got)
		}
		before := p.Now()
		second := nic.Put(p, 1, reg.ID, 0, []byte{2}, Imm{})
		second.Await(p)
		if !errors.Is(second.Err(), ErrPeerFailed) {
			t.Errorf("second op error = %v", second.Err())
		}
		if waited := p.Now().Sub(before); waited > f.TimeoutBudget()/2 {
			t.Errorf("post-detection op waited %v instead of failing fast", waited)
		}
	})
	if err != nil {
		t.Fatalf("rank 0 must finish cleanly once ops fail fast: %v", err)
	}
}

// TestReliableForceOnPerfectWire turns the protocol machinery on without any
// faults: everything must flow, with acks but zero repairs.
func TestReliableForceOnPerfectWire(t *testing.T) {
	runBoth(t, 2, func(c *Config) { c.Reliability.Force = true }, func(f *Fabric, p *exec.Proc) {
		if !f.ReliabilityEnabled() {
			t.Fatal("Force did not enable the reliability layer")
		}
		nic := f.NIC(p.Rank())
		reg := nic.Register(make([]byte, 64))
		barrier(f, p)
		if p.Rank() == 0 {
			nic.Put(p, 1, reg.ID, 0, []byte("perfect wire"), WithImm(1)).Await(p)
		} else {
			nic.WaitDest(p)
			if _, ok := nic.PollDest(); !ok {
				t.Fatal("no CQE")
			}
			if got := string(reg.Bytes()[:12]); got != "perfect wire" {
				t.Fatalf("data = %q", got)
			}
		}
		barrier(f, p)
		if p.Rank() == 0 {
			st := f.FaultStats()
			if st.LinkAcks == 0 {
				t.Error("no link acks on a forced reliable wire")
			}
			if st.CorruptDropped != 0 || st.PeersFailed != 0 {
				t.Errorf("damage on a perfect wire: %+v", st)
			}
			// Under Real, wall-clock scheduling can delay an ack past the
			// RTO and cause a benign spurious retransmit; only virtual time
			// guarantees none.
			if f.env.Mode() == exec.Sim && (st.Retransmits != 0 || st.DupsDropped != 0) {
				t.Errorf("repairs on a perfect virtual wire: %+v", st)
			}
		}
	})
}

// TestFaultPlaneOffByDefault pins the activation gate: without a plan the
// reliability layer must not exist at all (the zero-fault hot path and its
// Sim timings are untouched).
func TestFaultPlaneOffByDefault(t *testing.T) {
	env := exec.New(exec.Sim)
	f := New(env, DefaultConfig(2))
	defer f.Close()
	if f.ReliabilityEnabled() {
		t.Fatal("reliability layer active without a fault plan")
	}
	if st := f.FaultStats(); st != (FaultStats{}) {
		t.Fatalf("FaultStats nonzero on a lossless fabric: %+v", st)
	}
	if f.Injector() != nil {
		t.Fatal("injector exists without a plan")
	}
}

// TestReliableSimDeterministicUnderFaults runs the same faulty workload twice
// under Sim and requires identical virtual end times and identical fault
// statistics: the whole fault/repair cascade must replay from the seed.
func TestReliableSimDeterministicUnderFaults(t *testing.T) {
	run := func() (simtime.Time, FaultStats, CounterSnapshot) {
		env := exec.New(exec.Sim)
		c := DefaultConfig(3)
		c.FaultPlan = lossyPlan(1234)
		f := New(env, c)
		defer f.Close()
		err := env.Run(3, func(p *exec.Proc) {
			nic := f.NIC(p.Rank())
			reg := nic.Register(make([]byte, 256))
			barrier(f, p)
			next := (p.Rank() + 1) % f.Ranks()
			for i := 0; i < 20; i++ {
				nic.Put(p, next, reg.ID, (i%4)*8, []byte{byte(i), 1, 2, 3}, WithImm(uint32(i))).Detach()
			}
			nic.FlushAll(p)
			for i := 0; i < 20; i++ {
				nic.WaitDest(p)
				nic.PollDest()
			}
			barrier(f, p)
		})
		if err != nil {
			t.Fatal(err)
		}
		return env.Now(), f.FaultStats(), f.Stats.Snapshot()
	}
	t1, fs1, s1 := run()
	t2, fs2, s2 := run()
	if t1 != t2 {
		t.Errorf("virtual end time diverged: %v vs %v", t1, t2)
	}
	if fs1 != fs2 {
		t.Errorf("fault stats diverged:\n%+v\n%+v", fs1, fs2)
	}
	if s1 != s2 {
		t.Errorf("fabric stats diverged:\n%+v\n%+v", s1, s2)
	}
}

// TestFaultNICCloseDrainRace closes the fabric while senders are mid-blast,
// committing on their own goroutines: Close must complete without panics,
// races against in-flight deliveries, or deadlocked senders — packets that
// reach a closed NIC are discarded. (Run with -race.)
func TestFaultNICCloseDrainRace(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			env := exec.New(exec.Real)
			f := New(env, DefaultConfig(2))
			reg := f.NIC(1).Register(make([]byte, 4096))

			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					nic := f.NIC(0)
					payload := make([]byte, 128)
					for i := 0; i < 400; i++ {
						nic.Put(nil, 1, reg.ID, (g%4)*512, payload, WithImm(uint32(i))).Detach()
					}
				}(g)
			}
			// Consume some CQEs so the destination queue churns too.
			go func() {
				for i := 0; i < 100; i++ {
					f.NIC(1).PollDest()
				}
			}()
			time.Sleep(time.Duration(trial) * 200 * time.Microsecond)
			f.Close() // must not race in-flight delivery
			wg.Wait() // senders must never block on a closed NIC
		})
	}
}

// stampSink records the notifications of one region in delivery order and
// checks, at each delivery, that the slot the put wrote still holds its
// stamp — a later put from the same sender committed concurrently would
// already have overwritten it.
type stampSink struct {
	reg *MemRegion
	mu  sync.Mutex
	got [][]uint32 // per sender: sequence numbers in delivery order
	bad []string
}

func (s *stampSink) Deliver(cqe CQE) {
	sender, seq := cqe.Imm>>16, cqe.Imm&0xffff
	var slot [8]byte
	s.reg.ReadLocal(cqe.Offset, slot[:])
	s.mu.Lock()
	if v := binary.LittleEndian.Uint32(slot[:]); v != cqe.Imm {
		s.bad = append(s.bad, fmt.Sprintf("sender %d seq %d: slot holds %#x at delivery", sender, seq, v))
	}
	s.got[sender] = append(s.got[sender], seq)
	s.mu.Unlock()
}

// TestReliableInlineIngressInOrder pins the reliable layer's ingress under
// inline delivery. On the Real engine a packet commits on the goroutine
// that sent it, so ingress for one pair runs on rank 0's goroutine, two
// helper goroutines of rank 0, the RTO timers and the fault plane's reorder
// holds at once — and, for rank 0's stream to itself, nested inside its own
// deliveries' replies. Sequence-stamped notified puts and messages go to
// rank 1 and to rank 0 through drops, duplicates and reordering; each
// target must see every stamp exactly once and each sender's stamps in
// order.
func TestReliableInlineIngressInOrder(t *testing.T) {
	const (
		senders = 3 // rank 0's goroutine plus two helpers
		perPair = 150
		class   = 4242
	)
	env := exec.NewRealEnv()
	c := DefaultConfig(2)
	c.FaultPlan = &fault.Plan{Seed: 11, Drop: 0.05, Duplicate: 0.05, Reorder: 0.1}
	c.Reliability.RTO = simtime.Millisecond
	c.Reliability.RTOMax = 20 * simtime.Millisecond
	c.Reliability.MaxAttempts = 50
	f := New(env, c)
	defer f.Close()
	sinks := make([]*stampSink, 2)
	for r := range sinks {
		reg := f.NIC(r).Register(make([]byte, 8*senders))
		sinks[r] = &stampSink{reg: reg, got: make([][]uint32, senders)}
		f.NIC(r).InstallNotifySink(reg.ID, sinks[r])
	}
	inOrder := func(what string, target, sender int, seqs []uint32) {
		if len(seqs) != perPair {
			t.Errorf("%s to rank %d from sender %d: %d delivered, want %d", what, target, sender, len(seqs), perPair)
		}
		for i, s := range seqs {
			if s != uint32(i) {
				t.Errorf("%s to rank %d from sender %d: position %d holds seq %d (lost, duplicated or reordered)", what, target, sender, i, s)
				return
			}
		}
	}
	// drainMsgs consumes every message the senders posted to this rank and
	// checks each sender's headers arrive once and in order.
	drainMsgs := func(p *exec.Proc) {
		nic := f.NIC(p.Rank())
		seqs := make([][]uint32, senders)
		for i := 0; i < senders*perPair; i++ {
			m := nic.WaitMsgClass(p, class)
			seqs[m.Hdr[0]] = append(seqs[m.Hdr[0]], uint32(m.Hdr[1]))
		}
		for s := range seqs {
			inOrder("messages", p.Rank(), s, seqs[s])
		}
	}
	err := env.Run(2, func(p *exec.Proc) {
		nic := f.NIC(p.Rank())
		if p.Rank() == 1 {
			drainMsgs(p)
			barrier(f, p)
			return
		}
		stream := func(p *exec.Proc, sender int) {
			for i := 0; i < perPair; i++ {
				stamp := uint32(sender)<<16 | uint32(i)
				var payload [8]byte
				binary.LittleEndian.PutUint32(payload[:], stamp)
				for target := 0; target < 2; target++ {
					nic.Put(p, target, sinks[target].reg.ID, 8*sender, payload[:], WithImm(stamp)).Detach()
					nic.PostMsg(p, target, class, MsgHdr{sender, i}, nil, false)
				}
			}
		}
		var wg sync.WaitGroup
		for s := 1; s < senders; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				stream(nil, s)
			}(s)
		}
		stream(p, 0)
		wg.Wait()
		nic.FlushAll(p) // a put is acked only after it committed
		drainMsgs(p)
		barrier(f, p)
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, s := range sinks {
		for _, b := range s.bad {
			t.Error(b)
		}
		for sender, seqs := range s.got {
			inOrder("puts", r, sender, seqs)
		}
	}
	if st := f.FaultStats(); st.Injected.Dropped == 0 || st.Injected.Duplicated == 0 || st.Retransmits == 0 {
		t.Errorf("fault plane did not exercise the layer: %+v", st)
	}
}
