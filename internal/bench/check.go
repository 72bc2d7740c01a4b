package bench

import (
	"fmt"
	"time"

	"repro/internal/check"
)

// CheckStats runs the interleaving checker's model suite and reports
// exploration statistics: schedules executed and truncated, whether the
// bounded-preemption space was exhausted (a proof over that space rather
// than a sample), kernel steps, and schedules/second of wall time. The
// planted-bug rows (Snippet-1 trace P2: tail published before payload)
// must report "caught" with the replaying trace token — they are the
// checker checking itself.
func CheckStats() *Table {
	budget := 2000
	if Quick {
		budget = 300
	}
	type row struct {
		model    string
		strategy string
		opts     check.Options
		workload check.Workload
		planted  bool // a bug is planted: outcome must be "caught"
	}
	rows := []row{
		{"ring-p4", "dfs p<=2", check.Options{MaxPreemptions: 2, MaxSchedules: 10 * budget}, check.RingPublication(false), false},
		{"ring-p2-planted", "dfs p<=1", check.Options{MaxPreemptions: 1, MaxSchedules: budget}, check.RingPublication(true), true},
		{"ring-p2-planted", "sample seed=1", check.Options{MaxPreemptions: 2, MaxSchedules: budget, Seed: 1}, check.RingPublication(true), true},
		{"notify-wait", "dfs p<=2", check.Options{MaxPreemptions: 2, MaxSchedules: budget}, check.NotifyWait(false), false},
		{"notify-wait-shm", "dfs p<=2", check.Options{MaxPreemptions: 2, MaxSchedules: budget}, check.NotifyWait(true), false},
		{"class-dispatch", "dfs p<=2", check.Options{MaxPreemptions: 2, MaxSchedules: budget}, check.ClassDispatch(), false},
		{"crash-fanout", "dfs p<=2", check.Options{MaxPreemptions: 2, MaxSchedules: budget}, check.CrashFanout(), false},
		{"world-mp", "dfs p<=2", check.Options{MaxPreemptions: 2, MaxSchedules: budget / 2}, check.WorldExchange(), false},
		{"segring-p4", "dfs p<=2", check.Options{MaxPreemptions: 2, MaxSchedules: budget}, check.SegRingPublication(false), false},
		{"segring-relaxed-planted", "dfs p<=1", check.Options{MaxPreemptions: 1, MaxSchedules: budget}, check.SegRingPublication(true), true},
		{"segring-death", "dfs p<=2", check.Options{MaxPreemptions: 2, MaxSchedules: budget}, check.SegRingPeerDeath(), false},
		{"am-xonce", "dfs p<=2", check.Options{MaxPreemptions: 2, MaxSchedules: budget}, check.AMExactlyOnce(false), false},
		{"am-xonce-planted", "sample seed=1", check.Options{MaxPreemptions: 2, MaxSchedules: budget, Seed: 1}, check.AMExactlyOnce(true), true},
		{"replica-ckpt", "dfs p<=2", check.Options{MaxPreemptions: 2, MaxSchedules: budget}, check.ReplicaConsistency(false), false},
		{"replica-ckpt-planted", "sample seed=1", check.Options{MaxPreemptions: 2, MaxSchedules: budget, Seed: 1}, check.ReplicaConsistency(true), true},
	}
	t := &Table{Name: "check",
		Title: "Interleaving checker: schedule-space exploration statistics per model",
		Columns: []string{"model", "strategy", "schedules", "truncated",
			"exhausted", "steps", "sched/s", "outcome"}}
	for _, r := range rows {
		start := time.Now()
		res := check.Explore(r.opts, r.workload)
		wall := time.Since(start).Seconds()
		perSec := "-"
		if wall > 0 {
			perSec = fmt.Sprintf("%.0f", float64(res.Schedules)/wall)
		}
		outcome := "pass"
		switch {
		case r.planted && res.Err != nil:
			outcome = "caught @" + res.FailingTrace.String()
		case r.planted:
			outcome = "MISSED PLANTED BUG"
		case res.Err != nil:
			outcome = "FAIL @" + res.FailingTrace.String()
		}
		t.AddRow(r.model, r.strategy, itoa(res.Schedules), itoa(res.Truncated),
			fmt.Sprintf("%v", res.Exhausted), itoa(res.Steps), perSec, outcome)
	}
	t.Notes = append(t.Notes,
		"dfs p<=N enumerates every schedule deviating from time order in at most N places (exhausted=true makes the row a proof over that space); sample derives one RNG per iteration from the seed",
		"planted rows run a broken publication order (Snippet-1 trace P2 for the in-process ring; relaxed cursor-before-payload for the cross-process segment ring) and must be caught; the trace token replays the counterexample via check.Replay",
		"a FAIL outcome prints the replay trace of the first counterexample — run go test ./internal/check/ for the assertion detail")
	return t
}
