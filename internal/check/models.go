// Checker workloads ("models"): small, closed producer-consumer systems
// whose correctness claims the explorer turns into searches over the
// bounded-preemption schedule space. Each model builds a fresh world per
// schedule and panics with a *Violation (via Violatef) when an invariant
// breaks; lost wakeups surface as exec.DeadlockError without any model
// code. They are exported so the naperf "check" experiment can report
// exploration statistics over the exact workloads the tests prove.
package check

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/ft"
	"repro/internal/mp"
	"repro/internal/rma"
	"repro/internal/runtime"
)

// Workload is one closed system under test: called once per schedule with
// the exploring policy and returns that run's error.
type Workload func(s exec.Scheduler) error

// ---------------------------------------------------------------------------
// Snippet-1 ring publication model
// ---------------------------------------------------------------------------

// RingPublication models the paper's notified-access ring buffer the way
// the Rosette exemplar does (SNIPPETS.md Snippet 1): a producer publishes
// messages through a two-slot ring by writing the payload and then
// advancing a tail counter the consumer polls, wrapping twice. Every
// Yield is a scheduler-visible decision point, so the explorer drives the
// two ranks' steps against each other in every bounded-preemption order.
//
// broken=false is the P4 discipline (payload strictly before the tail
// publication — the placement the Rosette model proves safe): no schedule
// may observe a stale slot. broken=true is the P2 discipline (tail
// advanced before the payload lands): the notification is observable
// before its data, and the checker must find the schedule where the
// consumer reads the stale slot.
func RingPublication(broken bool) Workload {
	return func(s exec.Scheduler) error {
		const (
			slots = 2
			total = 4 // > slots: the ring wraps
		)
		var data [slots]uint64
		var tail, head uint64 // published count, consumed count
		env := exec.NewSimEnvSched(s)
		return env.Run(2, func(p *exec.Proc) {
			if p.Rank() == 0 {
				for v := uint64(1); v <= total; v++ {
					for v-1-head >= slots { // ring full: wait for the consumer
						p.Yield()
					}
					slot := (v - 1) % slots
					if broken {
						tail = v // P2: notification visible before its payload
						p.Yield()
						data[slot] = v * 100
					} else {
						data[slot] = v * 100 // P4: payload strictly first
						p.Yield()
						tail = v
					}
					p.Yield()
				}
			} else {
				for c := uint64(1); c <= total; c++ {
					for tail < c { // acquire: poll the published count
						p.Yield()
					}
					p.Yield()
					if got := data[(c-1)%slots]; got != c*100 {
						Violatef("ring: message %d read slot %d as %d, want %d (notification before payload)",
							c, (c-1)%slots, got, c*100)
					}
					p.Yield()
					head = c
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Fabric-level models
// ---------------------------------------------------------------------------

// fabricBarrier is the registration barrier used inside fabric-level
// models (mirrors the fabric tests' helper).
func fabricBarrier(f *fabric.Fabric, p *exec.Proc) {
	const class = 99990
	nic := f.NIC(p.Rank())
	if p.Rank() == 0 {
		for i := 1; i < f.Ranks(); i++ {
			nic.WaitMsgClass(p, class)
		}
		for i := 1; i < f.Ranks(); i++ {
			nic.PostMsg(p, i, class+1, fabric.MsgHdr{}, nil, false)
		}
	} else {
		nic.PostMsg(p, 0, class, fabric.MsgHdr{}, nil, false)
		nic.WaitMsgClass(p, class+1)
	}
}

// NotifyWait models the core notified-access contract on the real fabric:
// rank 0 puts K notified payloads into rank 1's region; rank 1 blocks in
// WaitDest and drains CQEs. Claims checked under every explored schedule:
// no lost wakeup (a missed WaitDest broadcast deadlocks the run), per-pair
// FIFO notification order, and payload-before-notification — when a CQE is
// visible its bytes are committed. intraNode=true puts both ranks on one
// node so the puts ride the shmring inline path (ring push/pop under
// wraparound pressure at ring scale is covered by shmring_test; here the
// checker covers its publication ordering).
func NotifyWait(intraNode bool) Workload {
	return func(s exec.Scheduler) error {
		const k = 3
		env := exec.NewSimEnvSched(s)
		cfg := fabric.DefaultConfig(2)
		if intraNode {
			cfg.RanksPerNode = 2
		}
		f := fabric.New(env, cfg)
		return env.Run(2, func(p *exec.Proc) {
			nic := f.NIC(p.Rank())
			reg := nic.Register(make([]byte, 8*k))
			fabricBarrier(f, p)
			if p.Rank() == 0 {
				for i := 0; i < k; i++ {
					nic.Put(p, 1, reg.ID, 8*i, []byte{byte(i + 1)}, fabric.WithImm(uint32(i+1))).Detach()
				}
				nic.FlushAll(p)
			} else {
				for i := 0; i < k; i++ {
					nic.WaitDest(p)
					cqe, ok := nic.PollDest()
					if !ok {
						Violatef("notify: WaitDest returned without a CQE")
					}
					if cqe.Imm != uint32(i+1) {
						Violatef("notify: CQE %d out of order: imm=%d want %d", i, cqe.Imm, i+1)
					}
					if got := reg.Bytes()[cqe.Offset]; got != byte(i+1) {
						Violatef("notify: CQE %d visible before payload: byte=%d want %d", i, got, i+1)
					}
				}
			}
		})
	}
}

// ClassDispatch models the class-bucketed message engine: rank 0 posts an
// interleaved stream over three classes while rank 1 alternates blocking
// multi-class waits with single-class waits. Claims: an arrival wakes the
// matching waiter (no lost wakeup ⇒ no deadlock), multi-class waits see
// buckets in arrival order, and no message is lost or duplicated.
func ClassDispatch() Workload {
	return func(s exec.Scheduler) error {
		const (
			classA = 100
			classB = 101
			classC = 102
		)
		env := exec.NewSimEnvSched(s)
		f := fabric.New(env, fabric.DefaultConfig(2))
		return env.Run(2, func(p *exec.Proc) {
			nic := f.NIC(p.Rank())
			if p.Rank() == 0 {
				nic.PostMsg(p, 1, classA, fabric.MsgHdr{1}, nil, false)
				nic.PostMsg(p, 1, classB, fabric.MsgHdr{2}, nil, false)
				nic.PostMsg(p, 1, classA, fabric.MsgHdr{3}, nil, false)
				nic.PostMsg(p, 1, classC, fabric.MsgHdr{4}, nil, false)
				return
			}
			// The A/B waits must interleave the two buckets in arrival
			// order regardless of how deliveries and wakeups are permuted
			// (per-pair FIFO pins the arrival order itself).
			for _, want := range []int{1, 2, 3} {
				m := nic.WaitMsgClasses(p, classA, classB)
				if m.Hdr[0] != want {
					Violatef("dispatch: multi-class wait got header %v want %d", m.Hdr, want)
				}
			}
			if m := nic.WaitMsgClass(p, classC); m.Hdr[0] != 4 {
				Violatef("dispatch: class-C wait got header %v want 4", m.Hdr)
			}
			if m, ok := nic.PollMsgClasses(classA, classB, classC); ok {
				Violatef("dispatch: stray message %v after drain", m.Hdr)
			}
		})
	}
}

// CrashFanout models failure detection racing in-flight traffic: rank 2 is
// crashed from the start while ranks 0 and 1 put to it, and the liveness
// timer that declares it dead races the healthy rank-0→1 stream under the
// explored schedules. Claims under every schedule: ops to the dead rank
// complete with errors unwrapping to ErrPeerFailed, ops to the live rank
// complete cleanly, a blocked waiter on the dead rank's traffic is unwound
// with the failure rather than deadlocking, and each survivor's PeerError
// names itself as the observer of rank 2.
func CrashFanout() Workload {
	return func(s exec.Scheduler) error {
		env := exec.NewSimEnvSched(s)
		cfg := fabric.DefaultConfig(3)
		cfg.FaultPlan = &fault.Plan{
			Ranks: []fault.RankFault{{Rank: 2, Mode: fault.Crash}},
		}
		f := fabric.New(env, cfg)
		err := env.Run(3, func(p *exec.Proc) {
			nic := f.NIC(p.Rank())
			reg := nic.Register(make([]byte, 16))
			switch p.Rank() {
			case 2:
				return // crashed: a real dead process runs nothing
			case 0:
				// Healthy stream and doomed stream in flight together.
				doomed := nic.Put(p, 2, reg.ID, 0, []byte{1}, fabric.Imm{})
				live := nic.Put(p, 1, reg.ID, 0, []byte{2}, fabric.WithImm(7))
				doomed.Await(p)
				if err := doomed.Err(); !errors.Is(err, fabric.ErrPeerFailed) {
					Violatef("crash: op to dead rank finished with %v, want ErrPeerFailed", err)
				}
				live.Await(p)
				if err := live.Err(); err != nil {
					Violatef("crash: op to live rank failed: %v", err)
				}
				checkObserved(nic, 0)
			case 1:
				// A waiter blocked on traffic only the dead rank would send
				// must be unwound by the failure fan-out, not parked forever.
				func() {
					defer func() {
						r := recover()
						if r == nil {
							Violatef("crash: wait on dead rank's message returned normally")
						}
						err, ok := r.(error)
						if !ok || !errors.Is(err, fabric.ErrPeerFailed) {
							panic(r) // not the failure unwind — re-raise
						}
					}()
					op := nic.Put(p, 2, reg.ID, 0, []byte{3}, fabric.Imm{})
					op.Await(p)
					// The put failed (checked via panic-free Err below);
					// now block on a message class only rank 2 uses.
					if !errors.Is(op.Err(), fabric.ErrPeerFailed) {
						Violatef("crash: rank 1 op to dead rank finished with %v", op.Err())
					}
					nic.WaitMsgClass(p, 555)
				}()
				checkObserved(nic, 1)
			}
		})
		if err != nil {
			return err
		}
		// The healthy stream from rank 0 landed: rank 0's live op completed,
		// so its notification is queued at rank 1. Checked after the run,
		// not by polling inside it: with a failure on record an empty-queue
		// WaitDest panics by design, and the explorer may fire the
		// declaration before the live put arrives.
		if cqe, ok := f.NIC(1).PollDest(); !ok || cqe.Imm != 7 {
			return &Violation{Msg: fmt.Sprintf("crash: live path left CQE %+v (ok=%v), want imm 7", cqe, ok)}
		}
		return nil
	}
}

// checkObserved asserts that survivor's NIC recorded rank 2's failure as
// its own observation.
func checkObserved(nic *fabric.NIC, survivor int) {
	var pf *fabric.PeerFailedError
	if err := nic.PeerError(2); !errors.As(err, &pf) || pf.Observer != survivor || pf.Rank != 2 {
		Violatef("crash: rank %d PeerError(2) = %v, want rank 2 observed by rank %d", survivor, err, survivor)
	}
}

// ---------------------------------------------------------------------------
// World-level model (runtime + mp through the Options.Env seam)
// ---------------------------------------------------------------------------

// WorldExchange models the full stack — runtime world, barrier, and the
// mp layer's posted/unexpected matching — under explored schedules,
// injected through runtime.Options.Env. Ranks 0 and 1 cross-send one
// eager and one rendezvous message with a barrier in between; the mp
// matcher's wait gates, the rendezvous RTS/CTS/data handshake, and the
// barrier's gather/release must all survive any bounded-preemption
// schedule (a lost wakeup anywhere deadlocks the run).
func WorldExchange() Workload {
	return func(s exec.Scheduler) error {
		const (
			eagerLen = 16
			rndvLen  = 128
		)
		return runtime.Run(runtime.Options{
			Ranks:          2,
			Mode:           exec.Sim,
			Env:            exec.NewSimEnvSched(s),
			EagerThreshold: 64, // rndvLen crosses into rendezvous
		}, func(p *runtime.Proc) {
			c := mp.New(p)
			peer := 1 - p.Rank()
			eager := make([]byte, eagerLen)
			rndv := make([]byte, rndvLen)
			for i := range eager {
				eager[i] = byte(p.Rank()*16 + i)
			}
			for i := range rndv {
				rndv[i] = byte(p.Rank()*32 + i)
			}
			// Cross eager sends: one side's send races the other's recv, so
			// the explorer drives both posted-queue and unexpected-queue
			// matching.
			sr := c.Isend(peer, 1, eager)
			gotE := make([]byte, eagerLen)
			c.Recv(gotE, peer, 1)
			c.WaitSend(sr)
			for i := range gotE {
				if gotE[i] != byte(peer*16+i) {
					Violatef("world: eager byte %d = %d, want %d", i, gotE[i], peer*16+i)
				}
			}
			p.Barrier()
			// Cross rendezvous sends (RTS/CTS/data handshake).
			sr = c.Isend(peer, 2, rndv)
			gotR := make([]byte, rndvLen)
			c.Recv(gotR, peer, 2)
			c.WaitSend(sr)
			for i := range gotR {
				if gotR[i] != byte(peer*32+i) {
					Violatef("world: rndv byte %d = %d, want %d", i, gotR[i], peer*32+i)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Cross-process segment-ring models (internal/shmfab)
// ---------------------------------------------------------------------------

// SegRingPublication models the cross-process shared-memory segment ring
// (internal/shmfab): a producer publishes entries into a fixed slot array
// under monotonic tail/head cursors, and even-numbered messages carry
// their payload out of line in a bulk region — the entry publishes only
// the bulk slot index, so those messages have two stores to order, not
// one. relaxedTail=false is the shipped discipline (payload strictly
// before cursor publication, the Snippet-1 P4 rule generalized to the
// bulk region); relaxedTail=true advances the cursor before the payload
// lands, and the checker must find the schedule where the consumer reads
// a stale slot.
func SegRingPublication(relaxedTail bool) Workload {
	return func(s exec.Scheduler) error {
		const (
			slots     = 2 // entry ring capacity
			bulkSlots = 2 // bulk region capacity
			total     = 4 // messages: odd inline, even via bulk
		)
		var (
			entries            [slots]uint64
			bulk               [bulkSlots]uint64
			tail, head         uint64 // entry cursors (monotonic)
			bulkTail, bulkHead uint64 // bulk cursors (monotonic)
		)
		env := exec.NewSimEnvSched(s)
		return env.Run(2, func(p *exec.Proc) {
			if p.Rank() == 0 {
				// Producer.
				for v := uint64(1); v <= total; v++ {
					for v-1-head >= slots {
						p.Yield() // ring full: wait for the consumer
					}
					slot := (v - 1) % slots
					if v%2 == 1 {
						// Inline entry: one payload store, then the cursor.
						if relaxedTail {
							tail = v
							p.Yield()
							entries[slot] = v * 100
						} else {
							entries[slot] = v * 100
							p.Yield()
							tail = v
						}
					} else {
						// Bulk entry: payload in the bulk region, slot index
						// in the entry, then the cursor — in that order.
						for bulkTail-bulkHead >= bulkSlots {
							p.Yield()
						}
						b := bulkTail % bulkSlots
						if relaxedTail {
							bulkTail++
							entries[slot] = b
							tail = v
							p.Yield()
							bulk[b] = v * 1000
						} else {
							bulk[b] = v * 1000
							p.Yield()
							bulkTail++
							entries[slot] = b
							p.Yield()
							tail = v
						}
					}
					p.Yield()
				}
			} else {
				// Consumer.
				for c := uint64(1); c <= total; c++ {
					for tail < c {
						p.Yield()
					}
					p.Yield()
					slot := (c - 1) % slots
					if c%2 == 1 {
						if got := entries[slot]; got != c*100 {
							Violatef("segring: inline entry %d = %d, want %d", c, got, c*100)
						}
					} else {
						b := entries[slot]
						if b >= bulkSlots {
							Violatef("segring: entry %d bulk slot %d out of range", c, b)
						}
						if got := bulk[b]; got != c*1000 {
							Violatef("segring: bulk payload %d = %d, want %d", c, got, c*1000)
						}
						p.Yield()
						bulkHead++
					}
					p.Yield()
					head = c
				}
			}
		})
	}
}

// SegRingPeerDeath models the shm transport's liveness story: a consumer
// blocked on an empty ring must be unblocked by heartbeat-death detection
// when the producer dies, without inventing entries the producer never
// published. The detector may fire while the producer still had beats
// left — a timeout cannot distinguish slow from dead, and the real
// transport sizes HeartbeatTimeout against the beat interval to make
// that harmless — so the model only claims termination, intact published
// data, and no phantom entries.
func SegRingPeerDeath() Workload {
	return func(s exec.Scheduler) error {
		var (
			entry     uint64
			tail      uint64
			heartbeat uint64
		)
		env := exec.NewSimEnvSched(s)
		return env.Run(2, func(p *exec.Proc) {
			if p.Rank() == 0 {
				// Producer: one published entry, two heartbeats, then death.
				entry = 100
				p.Yield()
				tail = 1
				p.Yield()
				heartbeat++
				p.Yield()
				heartbeat++
				// Dies here: no further beats, no entry 2.
			} else {
				// Consumer: drain entry 1, then wait for entry 2 until the
				// heartbeat stalls past the grace budget.
				for tail < 1 {
					p.Yield()
				}
				p.Yield()
				if entry != 100 {
					Violatef("segring-death: entry 1 = %d, want 100", entry)
				}
				const grace = 4
				lastBeat := heartbeat
				stall := 0
				for stall < grace {
					p.Yield()
					if tail >= 2 {
						Violatef("segring-death: phantom entry 2 (tail=%d)", tail)
					}
					if heartbeat != lastBeat {
						lastBeat = heartbeat
						stall = 0
						continue
					}
					stall++
				}
				// Loop exit = death detected: the parked wait unblocked.
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Replicated-window consistency model (internal/ft)
// ---------------------------------------------------------------------------

// ReplicaConsistency models the fault-tolerance subsystem's checkpoint
// claim under explored schedules: three ranks write into a replicated
// window through both mirror paths — a local commit (direct chain) and a
// remote put (TagMirror handler chain) — then checkpoint. The claim,
// checked against the actual buffers after the collective returns, is
// that Checkpoint's verdict exactly reflects byte-level reality: it
// passes only when every rank's mirror equals its predecessor's primary
// (no schedule lets the two-round quiesce miss an in-flight mirror
// chain), every rank sees the same verdict, and epochs stay in lockstep.
//
// planted=true arms the manager's test-only defect on rank 0
// (SetPlantSkipMirrorNth: its second mirror chain — local or
// handler-forwarded, whichever the schedule orders second — is silently
// dropped), so rank 1's mirror genuinely diverges and the checker must
// report the stale bytes; the model also requires Checkpoint itself to
// have flagged the divergence on every rank.
func ReplicaConsistency(planted bool) Workload {
	return func(s exec.Scheduler) error {
		const (
			n    = 3
			size = 64
		)
		fill := func(seed, size int) []byte {
			b := make([]byte, size)
			for i := range b {
				b[i] = byte(seed*37 + i*13 + 7)
			}
			return b
		}
		var (
			mu    sync.Mutex
			cerrs = make([]error, n)
			wins  = make([]*ft.Win, n)
		)
		mgrs := make([]*ft.Manager, n)
		for i := range mgrs {
			mgrs[i] = ft.NewManager()
		}
		return runtime.Run(runtime.Options{
			Ranks: n,
			Mode:  exec.Sim,
			Env:   exec.NewSimEnvSched(s),
		}, func(p *runtime.Proc) {
			r := p.Rank()
			m := mgrs[r]
			m.Begin(p)
			w := m.AllocateReplicated(size)
			mu.Lock()
			wins[r] = w
			mu.Unlock()
			if planted && r == 0 {
				m.SetPlantSkipMirrorNth(2)
			}
			w.CommitLocal(0, fill(r, size/2))
			w.Put((r+1)%n, size/2, fill(r+8, size/2))
			w.FlushAll()
			p.Barrier()
			err := m.Checkpoint()
			mu.Lock()
			cerrs[r] = err
			mu.Unlock()
			// On divergence Checkpoint returns before its final barrier, so
			// fence here before any cross-rank inspection.
			p.Barrier()

			mu.Lock()
			defer mu.Unlock()
			pred := (r - 1 + n) % n
			equal := bytes.Equal(w.Mirror().Buffer(), wins[pred].Primary().Buffer())
			if !equal {
				// The core claim — and, planted, the defect the checker
				// reports: rank 0's dropped chain leaves these bytes stale.
				Violatef("replica: rank %d mirror diverged from rank %d's primary (checkpoint verdict: %v)", r, pred, err)
			}
			if err != nil && !planted {
				Violatef("replica: clean run's checkpoint failed at rank %d: %v", r, err)
			}
			if err == nil && planted {
				Violatef("replica: rank %d checkpoint missed the planted skipped mirror", r)
			}
			// The verdict all-gather makes success/failure collective, so no
			// rank may disagree with rank 0 — and epochs must match it.
			if (cerrs[0] == nil) != (err == nil) {
				Violatef("replica: rank %d verdict (%v) disagrees with rank 0's (%v)", r, err, cerrs[0])
			}
			if m.Epoch() != mgrs[0].Epoch() {
				Violatef("replica: rank %d epoch %d != rank 0 epoch %d", r, m.Epoch(), mgrs[0].Epoch())
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Active-message exactly-once model
// ---------------------------------------------------------------------------

// AMExactlyOnce models the active-message dispatch contract on the full
// stack (runtime + matcher + AM engine) over FIFO links: rank 0 sends K
// uniquely-tagged payloads as notified puts, and rank 1's handler counts
// dispatches per payload. Claim under every explored schedule: each
// payload's handler runs exactly once — matching and the dispatch workers
// neither drop nor repeat a notification however deliveries, wakeups and
// workers interleave — and FlushAM does not return before queued handlers
// ran.
//
// planted=true arms the AM engine's test-only redelivery defect
// (SetAMPlantRedeliverNth): the second matched notification is dispatched
// twice, and the checker must catch the at-least-twice dispatch.
func AMExactlyOnce(planted bool) Workload {
	return func(s exec.Scheduler) error {
		const (
			k        = 3
			tagReq   = 7
			fenceTag = 200
		)
		return runtime.Run(runtime.Options{
			Ranks: 2,
			Mode:  exec.Sim,
			Env:   exec.NewSimEnvSched(s),
		}, func(p *runtime.Proc) {
			win := rma.Allocate(p, 8*k)
			defer win.Free()
			var mu sync.Mutex
			counts := map[byte]int{}
			var reg *core.HandlerReg
			if p.Rank() == 1 {
				if planted {
					core.SetAMPlantRedeliverNth(p, 2)
				}
				// The handler only records; the violation is raised on the
				// rank body after the flush — a Violatef inside the handler
				// would be swallowed by the engine's panic isolation.
				reg = core.RegisterHandlerCfg(win, tagReq, func(m *core.AMsg) {
					b := m.Data()[0]
					mu.Lock()
					counts[b]++
					mu.Unlock()
				}, core.AMConfig{Workers: 1})
			}
			p.Barrier()
			if p.Rank() == 0 {
				for i := 0; i < k; i++ {
					core.PutNotify(win, 1, 8*i, []byte{byte(0xA0 + i)}, tagReq).Await(p.Proc)
				}
				// Sent after every AM put, so once it matches at rank 1 all
				// of them were ingested there (per-pair FIFO delivery).
				core.PutNotify(win, 1, 0, nil, fenceTag).Await(p.Proc)
			} else {
				fence := core.NotifyInit(win, 0, fenceTag, 1)
				fence.Start()
				fence.Wait()
				fence.Free()
				core.FlushAM(p)
				mu.Lock()
				for i := 0; i < k; i++ {
					if c := counts[byte(0xA0+i)]; c != 1 {
						Violatef("am: payload %#x dispatched %d times, want exactly once", 0xA0+i, c)
					}
				}
				mu.Unlock()
				reg.Unregister()
			}
			p.Barrier()
		})
	}
}
