// Package simtime provides virtual time and a deterministic discrete-event
// queue for the simulation engine.
//
// Virtual time is measured in integer nanoseconds from the start of a run.
// The event queue is a binary min-heap ordered by (time, priority, sequence
// number); the sequence number makes pops deterministic when events share a
// timestamp, which in turn makes whole simulations bit-reproducible.
package simtime

import (
	"fmt"
	"math"
	"sort"
)

// Time is an absolute virtual time in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Never is a sentinel representing an unreachable point in time.
const Never Time = math.MaxInt64

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t - u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Micros returns the time in (fractional) microseconds.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

// Seconds returns the time in (fractional) seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

func (t Time) String() string { return fmt.Sprintf("%.3fus", t.Micros()) }

// Micros returns the duration in (fractional) microseconds.
func (d Duration) Micros() float64 { return float64(d) / 1e3 }

// Seconds returns the duration in (fractional) seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e9 }

func (d Duration) String() string { return fmt.Sprintf("%.3fus", d.Micros()) }

// FromMicros converts fractional microseconds into a Duration, rounding to
// the nearest nanosecond.
func FromMicros(us float64) Duration { return Duration(math.Round(us * 1e3)) }

// FromSeconds converts fractional seconds into a Duration.
func FromSeconds(s float64) Duration { return Duration(math.Round(s * 1e9)) }

// Event is a scheduled occurrence: a callback (Fn, or Obj's Fire method)
// or a process wakeup (see WakeID). Events are created through the Queue's
// Schedule methods; a kernel that fires an event hands it back with
// Release, after which the handle is reused and must not be touched.
type Event struct {
	At   Time
	Prio int    // lower fires first among equal times
	Fn   func() // callback, or nil
	Obj  Firer  // closure-free callback, or nil

	// Lane tags events whose relative order is a platform guarantee rather
	// than a race: two events on the same nonzero lane must fire in their
	// (time, priority, sequence) order even under an exploring scheduler
	// (the lossless fabric tags each (origin, target) delivery stream, whose
	// FIFO order upper layers are entitled to rely on). Lane 0 — the default
	// — carries no ordering constraint. The queue itself ignores the field;
	// it exists for scheduling policies inspecting AppendSorted snapshots.
	Lane uint64

	wake  int // process id + 1 for a wakeup; 0 for a callback
	seq   uint64
	index int // heap index; -1 when not queued
}

// Firer is a callback carried by an object rather than a closure: a pooled
// object that schedules itself allocates nothing per event.
type Firer interface{ Fire() }

// Cancelled reports whether the event has been removed from its queue (or
// has already fired).
func (e *Event) Cancelled() bool { return e.index < 0 }

// WakeID returns the process id of a wakeup scheduled with ScheduleWake, or
// -1 for a callback. The queue does not interpret it; the kernel resumes
// that process instead of calling anything.
func (e *Event) WakeID() int { return e.wake - 1 }

// Queue is a deterministic discrete-event queue. It is not safe for
// concurrent use; the simulation kernel owns it.
type Queue struct {
	heap []*Event
	free []*Event // released events, reused by the next Schedule
	seq  uint64
}

// NewQueue returns an empty event queue.
func NewQueue() *Queue { return &Queue{} }

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.heap) }

// Schedule enqueues fn to run at time at with priority prio and returns the
// event handle (usable with Cancel).
func (q *Queue) Schedule(at Time, prio int, fn func()) *Event {
	return q.ScheduleLane(at, prio, 0, fn)
}

// ScheduleLane is Schedule with a FIFO-lane tag (see Event.Lane).
func (q *Queue) ScheduleLane(at Time, prio int, lane uint64, fn func()) *Event {
	e := q.alloc(at, prio, lane)
	e.Fn = fn
	q.push(e)
	return e
}

// ScheduleFire is ScheduleLane for a Firer: obj.Fire runs when the event
// fires, with no closure built.
func (q *Queue) ScheduleFire(at Time, prio int, lane uint64, obj Firer) *Event {
	e := q.alloc(at, prio, lane)
	e.Obj = obj
	q.push(e)
	return e
}

// ScheduleWake enqueues a wakeup of process id (>= 0); see Event.WakeID.
func (q *Queue) ScheduleWake(at Time, prio int, id int) *Event {
	e := q.alloc(at, prio, 0)
	e.wake = id + 1
	q.push(e)
	return e
}

// alloc returns a fresh or recycled event stamped with the next sequence
// number.
func (q *Queue) alloc(at Time, prio int, lane uint64) *Event {
	q.seq++
	var e *Event
	if n := len(q.free); n > 0 {
		e = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		e = new(Event)
	}
	e.At, e.Prio, e.Lane, e.seq = at, prio, lane, q.seq
	return e
}

// Release recycles an event that has left the queue (popped or cancelled)
// and been fired. Whoever releases it must hold the only handle: the next
// Schedule reuses it.
func (q *Queue) Release(e *Event) {
	*e = Event{index: -1}
	q.free = append(q.free, e)
}

// Cancel removes e from the queue if it is still pending. It is safe to call
// on an event that already fired.
func (q *Queue) Cancel(e *Event) {
	if e == nil || e.index < 0 {
		return
	}
	q.remove(e.index)
}

// PeekTime returns the timestamp of the next event, or Never if empty.
func (q *Queue) PeekTime() Time {
	if len(q.heap) == 0 {
		return Never
	}
	return q.heap[0].At
}

// Pop removes and returns the next event, or nil if the queue is empty.
func (q *Queue) Pop() *Event {
	if len(q.heap) == 0 {
		return nil
	}
	e := q.heap[0]
	q.remove(0)
	return e
}

// AppendSorted appends every pending event to dst in firing order — the
// (time, priority, sequence) order Pop would return them in — and returns
// the extended slice. The events stay queued; the caller typically hands
// the slice to a scheduling policy that picks one and Cancels it. Reusing
// dst across calls keeps the per-step allocation at zero once the slice
// has grown to the queue's high-water length.
func (q *Queue) AppendSorted(dst []*Event) []*Event {
	n := len(dst)
	dst = append(dst, q.heap...)
	tail := dst[n:]
	sort.Slice(tail, func(i, j int) bool { return q.less(tail[i], tail[j]) })
	return dst
}

func (q *Queue) less(a, b *Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Prio != b.Prio {
		return a.Prio < b.Prio
	}
	return a.seq < b.seq
}

func (q *Queue) push(e *Event) {
	e.index = len(q.heap)
	q.heap = append(q.heap, e)
	q.up(e.index)
}

func (q *Queue) remove(i int) {
	n := len(q.heap) - 1
	e := q.heap[i]
	q.swap(i, n)
	q.heap = q.heap[:n]
	if i < n {
		q.down(i)
		q.up(i)
	}
	e.index = -1
}

func (q *Queue) swap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.heap[i].index = i
	q.heap[j].index = j
}

func (q *Queue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(q.heap[i], q.heap[parent]) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *Queue) down(i int) {
	n := len(q.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(q.heap[l], q.heap[smallest]) {
			smallest = l
		}
		if r < n && q.less(q.heap[r], q.heap[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q.swap(i, smallest)
		i = smallest
	}
}
