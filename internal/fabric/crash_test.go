package fabric

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/beat"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/simtime"
)

// liveness is the silence after which a down rank is declared failed.
var liveness = simtime.Duration(beat.Policy{}.WithDefaults().Timeout)

// TestCrashedRankUnblocksWaiters crashes a rank from the start under Sim
// and checks that (a) ops targeting it complete with ErrPeerFailed instead
// of hanging, (b) a survivor parked on its region's sink for a
// notification only the dead rank would send unwinds with the failure,
// woken through the FailureHook as the matcher is, and (c) the declaration
// lands exactly one liveness timeout in.
// The wall-clock engines are covered by runtime's
// TestCrashFanoutEveryEngine, which waits the timeout out once for all.
func TestCrashedRankUnblocksWaiters(t *testing.T) {
	env := exec.New(exec.Sim)
	c := DefaultConfig(3)
	c.FaultPlan = &fault.Plan{Ranks: []fault.RankFault{{Rank: 2, Mode: fault.Crash}}}
	sinks := make([]*testSink, 3)
	c.FailureHook = func(observer, failed int, err error) { sinks[observer].fail(err) }
	f := New(env, c)
	defer f.Close()
	err := env.Run(3, func(p *exec.Proc) {
		nic := f.NIC(p.Rank())
		reg := nic.Register(make([]byte, 8))
		sinks[p.Rank()] = sinkOn(reg)
		switch p.Rank() {
		case 0:
			op := nic.Put(p, 2, reg.ID, 0, []byte{1}, WithImm(9))
			op.Await(p)
			var pf *PeerFailedError
			if err := op.Err(); !errors.As(err, &pf) || pf.Observer != 0 || pf.Rank != 2 {
				t.Errorf("op error %v, want rank 2 failed as observed by rank 0", err)
			}
			if p.Now() != simtime.Time(0).Add(liveness) {
				t.Errorf("detection at %v, want %v", p.Now(), liveness)
			}
		case 1:
			// Parked on a notification only rank 2 would send: the
			// declaration must wake and unwind the wait rather than
			// deadlock.
			sinks[1].wait(p)
			t.Error("sink wait for the dead rank's notification returned normally")
		case 2:
			// Crashed: a dead process runs nothing.
		}
	})
	if !errors.Is(err, ErrPeerFailed) {
		t.Fatalf("run error %v does not unwrap to ErrPeerFailed", err)
	}
}

// TestSendToFailedPeerFailsFast checks that, once a rank is declared dead,
// new ops to it complete immediately with the error.
func TestSendToFailedPeerFailsFast(t *testing.T) {
	env := exec.New(exec.Sim)
	c := DefaultConfig(2)
	c.FaultPlan = &fault.Plan{Ranks: []fault.RankFault{{Rank: 1, Mode: fault.Crash}}}
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
		if waited := p.Now().Sub(before); waited > c.Model.OSend {
			t.Errorf("post-detection op waited %v instead of failing fast", waited)
		}
	})
	if err != nil {
		t.Fatalf("rank 0 must finish cleanly once ops fail fast: %v", err)
	}
}

// TestSimCrashDetectionDeterministic crashes two ranks from the start under
// Sim and requires every run to report the same failures in the same
// order, at the same virtual time: the down hook reports already-down ranks
// in rank order, so the declarations' events are numbered identically.
func TestSimCrashDetectionDeterministic(t *testing.T) {
	type seen struct{ observer, failed int }
	run := func() ([]seen, simtime.Time) {
		env := exec.New(exec.Sim)
		c := DefaultConfig(4)
		c.FaultPlan = &fault.Plan{Ranks: []fault.RankFault{
			{Rank: 3, Mode: fault.Crash}, {Rank: 2, Mode: fault.Crash},
		}}
		var got []seen
		c.FailureHook = func(observer, failed int, err error) {
			var pf *PeerFailedError
			if !errors.As(err, &pf) || pf.Observer != observer || pf.Rank != failed {
				t.Errorf("hook(%d, %d) carried %v", observer, failed, err)
			}
			got = append(got, seen{observer, failed})
		}
		f := New(env, c)
		defer f.Close()
		err := env.Run(4, func(p *exec.Proc) {
			if p.Rank() >= 2 {
				return
			}
			nic := f.NIC(p.Rank())
			reg := nic.Register(make([]byte, 8))
			for _, dead := range []int{3, 2} {
				nic.Put(p, dead, reg.ID, 0, []byte{1}, Imm{}).Await(p)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return got, env.Now()
	}
	want := []seen{{0, 2}, {1, 2}, {0, 3}, {1, 3}}
	_, firstEnd := run()
	if firstEnd < simtime.Time(0).Add(liveness) {
		t.Fatalf("run ended at %v, before the liveness timeout %v", firstEnd, liveness)
	}
	for i := 0; i < 20; i++ {
		got, end := run()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("run %d: failures observed as %v, want %v", i, got, want)
		}
		if end != firstEnd {
			t.Fatalf("run %d: virtual end time %v, want %v", i, end, firstEnd)
		}
	}
}

// TestFaultPlaneOffByDefault pins the activation gate: without a plan no
// injector exists (the fault-free hot path and its Sim timings never
// consult one) and the link-repair counters read zero.
func TestFaultPlaneOffByDefault(t *testing.T) {
	env := exec.New(exec.Sim)
	f := New(env, DefaultConfig(2))
	defer f.Close()
	if f.Injector() != nil {
		t.Fatal("injector exists without a plan")
	}
	if st := f.FaultStats(); st != (FaultStats{}) {
		t.Fatalf("FaultStats nonzero on a lossless fabric: %+v", st)
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
			sink := sinkOn(reg)

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
			// Consume some CQEs so the sink's queue churns too.
			go func() {
				for i := 0; i < 100; i++ {
					sink.poll()
				}
			}()
			time.Sleep(time.Duration(trial) * 200 * time.Microsecond)
			f.Close() // must not race in-flight delivery
			wg.Wait() // senders must never block on a closed NIC
		})
	}
}
