package exec

import (
	"fmt"

	"repro/internal/simtime"
)

// Scheduler is the Sim engine's pluggable event-selection policy. Every
// scheduling decision the kernel makes — which delivery commits next, which
// parked rank wakes next, which failure-declaration timer fires next — flows
// through Pick, so a policy sees (and may permute) every blocking/wake edge
// in the system.
//
// ready is the complete pending event set in firing order: sorted by
// (time, priority, sequence), so index 0 is what the default time-ordered
// policy would run. Pick returns the index of the event to fire next; the
// kernel removes it from the queue and advances virtual time monotonically
// (time never runs backwards: firing a later-stamped event first clamps
// the clock forward, and earlier-stamped events then fire "late"). ready
// is never empty and is only valid for the duration of the call.
//
// Returning an out-of-range index falls back to 0. Returning a negative
// index aborts the run with a *ScheduleAbortError — exploration harnesses
// use this to cut off schedules that exceed their step budget.
//
// Soundness: events sharing a nonzero Lane value are a FIFO stream whose
// relative order is a platform guarantee (the lossless fabric's per-pair
// delivery order), not a race. A policy exploring interleavings must only
// pick an event that is the first of its lane in ready — permuting within
// a lane fabricates schedules no execution can produce and yields false
// counterexamples. Lane-0 events carry no constraint.
//
// Policies other than the default distort virtual timings by construction;
// they exist to explore event orderings (see internal/check), not to
// model time. The default TimeOrdered policy is bit-identical to the
// engine's historical behavior.
type Scheduler interface {
	Pick(ready []*simtime.Event) int
}

// TimeOrdered is the default scheduling policy: always fire the event the
// discrete-event queue would pop — earliest timestamp, then priority, then
// insertion order. A SimEnv with a nil or TimeOrdered scheduler takes a
// fast path that pops the heap directly without materializing the ready
// slice.
type TimeOrdered struct{}

// Pick implements Scheduler.
func (TimeOrdered) Pick([]*simtime.Event) int { return 0 }

// ScheduleAbortError is returned by SimEnv.Run when the scheduling policy
// aborted the run (Pick returned a negative index) or the configured step
// limit was reached. Exploration harnesses treat it as "schedule truncated",
// distinct from a genuine workload failure.
type ScheduleAbortError struct {
	Steps int // kernel steps executed before the abort
}

func (e *ScheduleAbortError) Error() string {
	return fmt.Sprintf("simulation aborted by scheduler after %d steps", e.Steps)
}

// NewSimEnvSched returns a simulation engine driven by the given
// scheduling policy. NewSimEnvSched(nil) is equivalent to NewSimEnv().
func NewSimEnvSched(s Scheduler) *SimEnv {
	e := NewSimEnv()
	e.sched = s
	return e
}

// SetStepLimit bounds the number of kernel steps (events fired) a run may
// execute; exceeding it aborts the run with *ScheduleAbortError. Zero (the
// default) means unlimited. Exploration harnesses set it as a backstop
// against schedules that perturb the system into a livelock.
func (e *SimEnv) SetStepLimit(n int) { e.stepLimit = n }

// Steps returns the number of kernel steps (events fired) so far.
func (e *SimEnv) Steps() int { return e.steps }

// nextEvent selects and removes the next event to fire, consulting the
// scheduling policy when one is installed. Returns nil when the queue is
// empty, and aborts the run (e.aborting, *ScheduleAbortError) when the
// policy or the step limit says stop.
func (e *SimEnv) nextEvent() *simtime.Event {
	if e.stepLimit > 0 && e.steps >= e.stepLimit {
		e.abortSchedule()
		return nil
	}
	if e.sched == nil {
		return e.q.Pop()
	}
	if _, ok := e.sched.(TimeOrdered); ok {
		return e.q.Pop()
	}
	if e.q.Len() == 0 {
		return nil
	}
	e.ready = e.q.AppendSorted(e.ready[:0])
	i := e.sched.Pick(e.ready)
	if i < 0 {
		e.abortSchedule()
		return nil
	}
	if i >= len(e.ready) {
		i = 0
	}
	ev := e.ready[i]
	e.q.Cancel(ev)
	return ev
}

// abortSchedule records a scheduler-initiated abort as the run error
// (unless a real error already won) and starts the teardown.
func (e *SimEnv) abortSchedule() {
	if e.err == nil {
		e.err = &ScheduleAbortError{Steps: e.steps}
	}
	e.aborting = true
}
