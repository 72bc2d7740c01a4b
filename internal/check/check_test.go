package check_test

import (
	"errors"
	"flag"
	"testing"

	"repro/internal/check"
	"repro/internal/exec"
)

// Exploration budgets. Tier-1 runs with the defaults (a few hundred
// schedules per model, well under a second each); the CI bounded-
// exploration job raises -check.iters and sweeps -check.seed to search
// deeper without slowing the default test loop.
var (
	checkIters = flag.Int("check.iters", 400, "max schedules per exploration")
	checkSeed  = flag.Int64("check.seed", 1, "seed for sampler-based explorations")
)

// mustPass explores w and fails the test with a replayable trace token if
// any schedule produced a counterexample.
func mustPass(t *testing.T, opts check.Options, w check.Workload) check.Result {
	t.Helper()
	res := check.Explore(opts, w)
	t.Logf("%d schedules (%d truncated, exhausted=%v), %d kernel steps",
		res.Schedules, res.Truncated, res.Exhausted, res.Steps)
	if res.Err != nil {
		t.Fatalf("counterexample (replay trace %q): %v", res.FailingTrace.String(), res.Err)
	}
	return res
}

// mustCatch explores w expecting a model violation; returns the result.
func mustCatch(t *testing.T, opts check.Options, w check.Workload) check.Result {
	t.Helper()
	res := check.Explore(opts, w)
	t.Logf("%d schedules (%d truncated), %d kernel steps; trace %q",
		res.Schedules, res.Truncated, res.Steps, res.FailingTrace.String())
	if res.Err == nil {
		t.Fatalf("checker missed the planted bug in %d schedules", res.Schedules)
	}
	if !check.IsViolation(res.Err) {
		t.Fatalf("failure is not a model violation: %v", res.Err)
	}
	return res
}

// TestRingPublicationP4Safe proves (by exhausting the 2-preemption
// schedule space) that the Snippet-1 P4 discipline — payload strictly
// before tail publication — never lets the consumer observe a stale slot,
// including across ring wraparound.
func TestRingPublicationP4Safe(t *testing.T) {
	res := mustPass(t, check.Options{
		MaxPreemptions: 2,
		MaxSchedules:   20000,
	}, check.RingPublication(false))
	if !res.Exhausted {
		t.Errorf("expected exhaustive coverage of the 2-preemption space, ran %d schedules", res.Schedules)
	}
}

// TestRingPublicationP2Caught is the checker's own regression test: the
// deliberately broken P2 discipline (tail store before payload store,
// Snippet-1 trace P2) must be caught within a small bounded budget, by
// both strategies, and the failing schedule must replay deterministically.
func TestRingPublicationP2Caught(t *testing.T) {
	t.Run("dfs", func(t *testing.T) {
		res := mustCatch(t, check.Options{
			MaxPreemptions: 1,
			MaxSchedules:   200,
		}, check.RingPublication(true))
		// Deterministic single-trace replay of the failing schedule.
		err := check.Replay(res.FailingTrace, check.Options{}, check.RingPublication(true))
		if !check.IsViolation(err) {
			t.Fatalf("replay of %q did not reproduce the violation: %v", res.FailingTrace.String(), err)
		}
		err2 := check.Replay(res.FailingTrace, check.Options{}, check.RingPublication(true))
		// Compare the violation payloads, not the full run errors — those
		// embed goroutine stacks whose IDs differ across runs.
		var v1, v2 *check.Violation
		if !errors.As(err, &v1) || !errors.As(err2, &v2) || v1.Msg != v2.Msg {
			t.Fatalf("replay not deterministic:\n  %v\n  %v", err, err2)
		}
	})
	t.Run("sampler", func(t *testing.T) {
		res := mustCatch(t, check.Options{
			MaxPreemptions: 2,
			MaxSchedules:   *checkIters,
			Seed:           *checkSeed,
		}, check.RingPublication(true))
		if err := check.Replay(res.FailingTrace, check.Options{}, check.RingPublication(true)); !check.IsViolation(err) {
			t.Fatalf("replay of sampled trace %q failed: %v", res.FailingTrace.String(), err)
		}
	})
}

// TestNotifyWait model-checks the notified-access put path on the real
// fabric: no lost WaitDest wakeup, FIFO notification order, payload
// committed before its notification — inter-node and on the intra-node
// shmring inline path.
func TestNotifyWait(t *testing.T) {
	for _, tc := range []struct {
		name      string
		intraNode bool
	}{{"internode", false}, {"intranode-ring", true}} {
		t.Run(tc.name, func(t *testing.T) {
			mustPass(t, check.Options{
				MaxPreemptions: 2,
				MaxSchedules:   *checkIters,
			}, check.NotifyWait(tc.intraNode))
		})
	}
}

// TestClassDispatch model-checks the class-bucketed message engine for
// lost wakeups and arrival-order violations.
func TestClassDispatch(t *testing.T) {
	mustPass(t, check.Options{
		MaxPreemptions: 2,
		MaxSchedules:   *checkIters,
	}, check.ClassDispatch())
}

// TestCrashFanout model-checks ErrPeerFailed fan-out consistency when a
// crash's liveness declaration interleaves with in-flight puts, and proves
// it over the whole 2-preemption schedule space.
func TestCrashFanout(t *testing.T) {
	res := mustPass(t, check.Options{
		MaxPreemptions: 2,
		MaxSchedules:   *checkIters,
	}, check.CrashFanout())
	if !res.Exhausted {
		t.Errorf("expected exhaustive coverage of the 2-preemption space, ran %d schedules", res.Schedules)
	}
}

// TestWorldExchange model-checks the full stack (runtime + mp matching +
// barrier) through the runtime.Options.Env injection seam.
func TestWorldExchange(t *testing.T) {
	mustPass(t, check.Options{
		MaxPreemptions: 2,
		MaxSchedules:   *checkIters / 2,
	}, check.WorldExchange())
}

// TestDefaultScheduleBitIdentical pins the zero-perturbation guarantee:
// running a workload under the explorer's controlled scheduler with no
// forced choices fires the exact event sequence the stock engine fires, so
// Sim timings with the default TimeOrdered policy stay bit-identical.
func TestDefaultScheduleBitIdentical(t *testing.T) {
	trace := func(s exec.Scheduler) []int {
		var order []int
		env := exec.NewSimEnvSched(s)
		err := env.Run(3, func(p *exec.Proc) {
			for i := 0; i < 4; i++ {
				p.Sleep(1)
				order = append(order, p.Rank())
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return order
	}
	base := trace(nil)
	var viaDefaultTrace []int
	err := check.Replay(nil, check.Options{}, func(s exec.Scheduler) error {
		viaDefaultTrace = trace(s)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != len(viaDefaultTrace) {
		t.Fatalf("lengths differ: %d vs %d", len(base), len(viaDefaultTrace))
	}
	for i := range base {
		if base[i] != viaDefaultTrace[i] {
			t.Fatalf("step %d: stock %d vs controlled-default %d", i, base[i], viaDefaultTrace[i])
		}
	}
}

// TestTraceRoundTrip covers the replay-token encoding.
func TestTraceRoundTrip(t *testing.T) {
	for _, tr := range []check.Trace{
		nil,
		{{Step: 12, Pick: 1}},
		{{Step: 3, Pick: 2}, {Step: 47, Pick: 1}},
	} {
		got, err := check.ParseTrace(tr.String())
		if err != nil {
			t.Fatalf("ParseTrace(%q): %v", tr.String(), err)
		}
		if len(got) != len(tr) {
			t.Fatalf("round trip of %q: got %q", tr.String(), got.String())
		}
		for i := range got {
			if got[i] != tr[i] {
				t.Fatalf("round trip of %q: got %q", tr.String(), got.String())
			}
		}
	}
	for _, bad := range []string{"x", "s1", "s2=1,s1=1", "s=1"} {
		if _, err := check.ParseTrace(bad); err == nil {
			t.Errorf("ParseTrace(%q) accepted", bad)
		}
	}
}

// TestViolationClassification pins the error taxonomy the explorer relies
// on: model violations are violations, deadlocks and aborts are not.
func TestViolationClassification(t *testing.T) {
	if check.IsViolation(errors.New("plain")) {
		t.Error("plain error classified as violation")
	}
	res := check.Explore(check.Options{MaxSchedules: 1}, func(s exec.Scheduler) error {
		env := exec.NewSimEnvSched(s)
		return env.Run(1, func(p *exec.Proc) { check.Violatef("boom %d", 7) })
	})
	if !check.IsViolation(res.Err) {
		t.Errorf("Violatef panic not classified: %v", res.Err)
	}
}

// TestSegRingP4Safe proves the cross-process segment ring's shipped
// publication discipline (payload — inline or via the bulk region —
// strictly before cursor publication) never exposes a stale slot to the
// consumer under any 2-preemption schedule.
func TestSegRingP4Safe(t *testing.T) {
	mustPass(t, check.Options{
		MaxPreemptions: 2,
		MaxSchedules:   *checkIters,
	}, check.SegRingPublication(false))
}

// TestSegRingRelaxedTailCaught plants the relaxed discipline — cursor
// advanced before the payload lands — and requires the checker to find
// the stale read, with a deterministic replay of the failing schedule.
func TestSegRingRelaxedTailCaught(t *testing.T) {
	res := mustCatch(t, check.Options{
		MaxPreemptions: 1,
		MaxSchedules:   400,
	}, check.SegRingPublication(true))
	if err := check.Replay(res.FailingTrace, check.Options{}, check.SegRingPublication(true)); !check.IsViolation(err) {
		t.Fatalf("replay of %q did not reproduce the violation: %v", res.FailingTrace.String(), err)
	}
}

// TestSegRingPeerDeathUnblocks proves the heartbeat-death story: a
// consumer parked on an empty ring terminates under every bounded
// schedule once the producer stops beating, published data stays intact,
// and death detection never invents an entry.
func TestSegRingPeerDeathUnblocks(t *testing.T) {
	mustPass(t, check.Options{
		MaxPreemptions: 2,
		MaxSchedules:   *checkIters,
	}, check.SegRingPeerDeath())
}

// TestAMExactlyOnce model-checks the active-message dispatch contract
// over FIFO links: every payload's handler runs exactly once under every
// explored schedule.
func TestAMExactlyOnce(t *testing.T) {
	t.Run("dfs", func(t *testing.T) {
		mustPass(t, check.Options{
			MaxPreemptions: 2,
			MaxSchedules:   *checkIters,
		}, check.AMExactlyOnce(false))
	})
	t.Run("sampler", func(t *testing.T) {
		mustPass(t, check.Options{
			MaxPreemptions: 3,
			MaxSchedules:   *checkIters,
			Seed:           *checkSeed,
		}, check.AMExactlyOnce(false))
	})
}

// TestAMExactlyOnceCaught regression-tests the checker itself: with the
// engine's planted redelivery defect armed (the second matched
// notification dispatches twice), the at-least-twice dispatch must be
// caught from the fixed seed.
func TestAMExactlyOnceCaught(t *testing.T) {
	mustCatch(t, check.Options{
		MaxPreemptions: 2,
		MaxSchedules:   *checkIters,
		Seed:           *checkSeed,
	}, check.AMExactlyOnce(true))
}

// TestReplicaConsistency model-checks the fault-tolerance checkpoint:
// under every explored schedule the two-round quiesce may not miss an
// in-flight mirror chain, Checkpoint's verdict must match the actual
// bytes, and all ranks must agree on verdict and epoch.
func TestReplicaConsistency(t *testing.T) {
	t.Run("dfs", func(t *testing.T) {
		mustPass(t, check.Options{
			MaxPreemptions: 2,
			MaxSchedules:   *checkIters,
		}, check.ReplicaConsistency(false))
	})
	t.Run("sampler", func(t *testing.T) {
		mustPass(t, check.Options{
			MaxPreemptions: 3,
			MaxSchedules:   *checkIters,
			Seed:           *checkSeed,
		}, check.ReplicaConsistency(false))
	})
}

// TestReplicaConsistencyPlantedCaught arms the manager's skipped-mirror
// defect and requires the checker to report the stale mirror bytes from
// the fixed seed, with a deterministic replay of the failing schedule.
func TestReplicaConsistencyPlantedCaught(t *testing.T) {
	res := mustCatch(t, check.Options{
		MaxPreemptions: 2,
		MaxSchedules:   *checkIters,
		Seed:           *checkSeed,
	}, check.ReplicaConsistency(true))
	if err := check.Replay(res.FailingTrace, check.Options{}, check.ReplicaConsistency(true)); !check.IsViolation(err) {
		t.Fatalf("replay of %q did not reproduce the violation: %v", res.FailingTrace.String(), err)
	}
}
