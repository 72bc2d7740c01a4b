package exec

import (
	"errors"
	"testing"

	"repro/internal/simtime"
)

// simWorkload runs a small multi-rank Sleep/Gate workload and returns the
// finishing virtual time and per-step rank order.
func simWorkload(env *SimEnv) (simtime.Time, []int, error) {
	var order []int
	err := env.Run(3, func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(simtime.Duration(1 + p.Rank()))
			order = append(order, p.Rank())
		}
	})
	return env.Now(), order, err
}

// TestTimeOrderedBitIdentical pins the acceptance criterion that the
// default policy is the stock engine: same finish time, same execution
// order, for nil and explicit TimeOrdered schedulers.
func TestTimeOrderedBitIdentical(t *testing.T) {
	baseT, baseOrder, err := simWorkload(NewSimEnv())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Scheduler{nil, TimeOrdered{}} {
		gotT, gotOrder, err := simWorkload(NewSimEnvSched(s))
		if err != nil {
			t.Fatal(err)
		}
		if gotT != baseT {
			t.Errorf("scheduler %T: finish time %v, want %v", s, gotT, baseT)
		}
		if len(gotOrder) != len(baseOrder) {
			t.Fatalf("scheduler %T: %d steps, want %d", s, len(gotOrder), len(baseOrder))
		}
		for i := range baseOrder {
			if gotOrder[i] != baseOrder[i] {
				t.Fatalf("scheduler %T: step %d ran rank %d, want %d", s, i, gotOrder[i], baseOrder[i])
			}
		}
	}
}

// lastPick always fires the latest pending event — a maximally perverse
// policy that still must terminate the run with a monotone clock.
type lastPick struct{ picks int }

func (s *lastPick) Pick(ready []*simtime.Event) int {
	s.picks++
	return len(ready) - 1
}

func TestPerversePolicyMonotoneClock(t *testing.T) {
	env := NewSimEnvSched(&lastPick{})
	var stamps []simtime.Time
	err := env.Run(2, func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Sleep(simtime.Duration(10 * (p.Rank() + 1)))
			stamps = append(stamps, env.Now())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(stamps); i++ {
		if stamps[i] < stamps[i-1] {
			t.Fatalf("clock ran backwards: %v after %v", stamps[i], stamps[i-1])
		}
	}
	if env.Steps() == 0 {
		t.Error("no steps counted")
	}
}

// negPick aborts immediately.
type negPick struct{}

func (negPick) Pick([]*simtime.Event) int { return -1 }

func TestSchedulerAbort(t *testing.T) {
	env := NewSimEnvSched(negPick{})
	err := env.Run(1, func(p *Proc) { p.Sleep(1) })
	var abort *ScheduleAbortError
	if !errors.As(err, &abort) {
		t.Fatalf("err = %v, want ScheduleAbortError", err)
	}
}

func TestStepLimit(t *testing.T) {
	env := NewSimEnvSched(TimeOrdered{})
	env.SetStepLimit(3)
	err := env.Run(1, func(p *Proc) {
		for {
			p.Sleep(1) // unbounded busy loop: only the limit stops it
		}
	})
	var abort *ScheduleAbortError
	if !errors.As(err, &abort) {
		t.Fatalf("err = %v, want ScheduleAbortError", err)
	}
	if abort.Steps != 3 {
		t.Errorf("aborted after %d steps, want 3", abort.Steps)
	}
}

// TestOutOfRangePickFallsBack covers the documented clamp.
type bigPick struct{}

func (bigPick) Pick(ready []*simtime.Event) int { return len(ready) + 5 }

func TestOutOfRangePickFallsBack(t *testing.T) {
	env := NewSimEnvSched(bigPick{})
	done := false
	if err := env.Run(1, func(p *Proc) { p.Sleep(1); done = true }); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Error("rank did not finish")
	}
}

// TestLaneTagPropagates checks ScheduleLane tags reach the ready snapshot
// and that the helper falls back cleanly on engines without lanes.
func TestLaneTagPropagates(t *testing.T) {
	q := simtime.NewQueue()
	q.ScheduleLane(5, 0, 42, func() {})
	q.Schedule(1, 0, func() {})
	evs := q.AppendSorted(nil)
	if len(evs) != 2 || evs[0].Lane != 0 || evs[1].Lane != 42 {
		t.Fatalf("lanes = %d,%d want 0,42", evs[0].Lane, evs[1].Lane)
	}

	re := NewRealEnv()
	ran := make(closeOnFire)
	ScheduleLane(re, 0, PrioDelivery, 7, ran)
	<-ran
}

// closeOnFire is a simtime.Firer that closes itself when fired.
type closeOnFire chan struct{}

func (c closeOnFire) Fire() { close(c) }
