package simtime

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(0)
	t1 := t0.Add(3 * Microsecond)
	if t1 != 3000 {
		t.Fatalf("Add: got %d want 3000", t1)
	}
	if d := t1.Sub(t0); d != 3*Microsecond {
		t.Fatalf("Sub: got %v", d)
	}
	if t1.Micros() != 3.0 {
		t.Fatalf("Micros: got %v", t1.Micros())
	}
	if got := FromMicros(1.02); got != 1020 {
		t.Fatalf("FromMicros(1.02) = %d, want 1020", got)
	}
	if got := FromSeconds(0.5); got != 500*Millisecond {
		t.Fatalf("FromSeconds(0.5) = %d", got)
	}
}

func TestTimeString(t *testing.T) {
	if s := Time(1500).String(); s != "1.500us" {
		t.Fatalf("Time.String = %q", s)
	}
	if s := Duration(250).String(); s != "0.250us" {
		t.Fatalf("Duration.String = %q", s)
	}
}

func TestQueueOrdering(t *testing.T) {
	q := NewQueue()
	var fired []int
	q.Schedule(30, 0, func() { fired = append(fired, 3) })
	q.Schedule(10, 0, func() { fired = append(fired, 1) })
	q.Schedule(20, 0, func() { fired = append(fired, 2) })
	for q.Len() > 0 {
		e := q.Pop()
		e.Fn()
	}
	if len(fired) != 3 || fired[0] != 1 || fired[1] != 2 || fired[2] != 3 {
		t.Fatalf("fired order %v", fired)
	}
}

func TestQueueFIFOTieBreak(t *testing.T) {
	// Events at the same timestamp must fire in insertion order.
	q := NewQueue()
	var fired []int
	for i := 0; i < 100; i++ {
		i := i
		q.Schedule(42, 0, func() { fired = append(fired, i) })
	}
	for q.Len() > 0 {
		q.Pop().Fn()
	}
	for i, v := range fired {
		if v != i {
			t.Fatalf("tie-break violated at %d: %v", i, fired[:i+1])
		}
	}
}

func TestQueuePriority(t *testing.T) {
	q := NewQueue()
	var fired []string
	q.Schedule(5, 1, func() { fired = append(fired, "low") })
	q.Schedule(5, 0, func() { fired = append(fired, "high") })
	for q.Len() > 0 {
		q.Pop().Fn()
	}
	if fired[0] != "high" || fired[1] != "low" {
		t.Fatalf("priority order %v", fired)
	}
}

func TestQueueCancel(t *testing.T) {
	q := NewQueue()
	fired := false
	e := q.Schedule(10, 0, func() { fired = true })
	if e.Cancelled() {
		t.Fatal("fresh event reports cancelled")
	}
	q.Cancel(e)
	if !e.Cancelled() {
		t.Fatal("cancelled event not marked")
	}
	if q.Len() != 0 {
		t.Fatalf("queue length %d after cancel", q.Len())
	}
	q.Cancel(e) // double cancel must be safe
	q.Cancel(nil)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestQueueCancelMiddle(t *testing.T) {
	q := NewQueue()
	var events []*Event
	for i := 0; i < 50; i++ {
		at := Time(i)
		events = append(events, q.Schedule(at, 0, func() {}))
	}
	// Cancel every third event and verify remaining pop order.
	want := []Time{}
	for i, e := range events {
		if i%3 == 0 {
			q.Cancel(e)
		} else {
			want = append(want, Time(i))
		}
	}
	var got []Time
	for q.Len() > 0 {
		got = append(got, q.Pop().At)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pop %d: got t=%d want t=%d", i, got[i], want[i])
		}
	}
}

func TestQueuePeekTime(t *testing.T) {
	q := NewQueue()
	if q.PeekTime() != Never {
		t.Fatal("empty queue PeekTime != Never")
	}
	q.Schedule(7, 0, func() {})
	if q.PeekTime() != 7 {
		t.Fatalf("PeekTime = %d", q.PeekTime())
	}
	if q.Pop() == nil {
		t.Fatal("Pop returned nil on non-empty queue")
	}
	if q.Pop() != nil {
		t.Fatal("Pop returned event on empty queue")
	}
}

// Property: popping a random schedule yields a non-decreasing time sequence
// that is a permutation of the scheduled times.
func TestQueueHeapProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		q := NewQueue()
		times := make([]Time, 0, n)
		for i := 0; i < int(n); i++ {
			at := Time(rng.Intn(1000))
			times = append(times, at)
			q.Schedule(at, 0, func() {})
		}
		var popped []Time
		for q.Len() > 0 {
			popped = append(popped, q.Pop().At)
		}
		if len(popped) != len(times) {
			return false
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		for i := range popped {
			if popped[i] != times[i] {
				return false
			}
			if i > 0 && popped[i] < popped[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaved schedule/cancel/pop maintains heap invariants.
func TestQueueRandomOps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := NewQueue()
		var live []*Event
		last := Time(-1)
		for op := 0; op < 500; op++ {
			switch rng.Intn(3) {
			case 0:
				e := q.Schedule(Time(rng.Intn(10000)), 0, func() {})
				live = append(live, e)
			case 1:
				if len(live) > 0 {
					i := rng.Intn(len(live))
					q.Cancel(live[i])
					live = append(live[:i], live[i+1:]...)
				}
			case 2:
				if e := q.Pop(); e != nil {
					if e.At < last {
						return false
					}
					last = e.At
					for i, le := range live {
						if le == e {
							live = append(live[:i], live[i+1:]...)
							break
						}
					}
					// popping resets monotonic floor only within drains;
					// since we interleave scheduling, allow reset when queue
					// may have received earlier events after pops.
					last = -1
				}
			}
		}
		return q.Len() == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// countFirer counts how many times it fired.
type countFirer int

func (c *countFirer) Fire() { *c++ }

// TestQueueWakeFireAndRelease: the three event kinds order like any other
// events, carry what the kernel needs (a wake its process id, a Firer its
// object and lane), and a released event is reset and handed out again,
// so a warmed Schedule/Pop/Release cycle allocates nothing.
func TestQueueWakeFireAndRelease(t *testing.T) {
	q := NewQueue()
	var cf countFirer
	w := q.ScheduleWake(5, 1, 3)
	c := q.Schedule(5, 0, func() {})
	o := q.ScheduleFire(5, 0, 7, &cf)
	for i, want := range []*Event{c, o, w} {
		if got := q.Pop(); got != want {
			t.Fatalf("pop %d: got %p, want %p", i, got, want)
		}
	}
	if c.WakeID() != -1 || o.WakeID() != -1 || w.WakeID() != 3 {
		t.Fatalf("WakeID = %d, %d, %d; want -1, -1, 3", c.WakeID(), o.WakeID(), w.WakeID())
	}
	if o.Lane != 7 || o.Obj == nil || o.Fn != nil {
		t.Fatalf("fire event: lane %d obj %v fn set %v", o.Lane, o.Obj, o.Fn != nil)
	}
	o.Obj.Fire()
	if cf != 1 {
		t.Fatalf("Fire ran %d times", cf)
	}

	q.Release(w)
	if !w.Cancelled() {
		t.Fatal("released event not marked out of the queue")
	}
	e := q.Schedule(9, 0, func() {})
	if e != w || e.WakeID() != -1 || e.Obj != nil || e.At != 9 || e.Cancelled() {
		t.Fatalf("reused event: same %v, wake %d, obj %v, at %d, queued %v",
			e == w, e.WakeID(), e.Obj, e.At, !e.Cancelled())
	}
	q.Release(q.Pop())
	if n := testing.AllocsPerRun(100, func() { q.ScheduleWake(1, 1, 0); q.Release(q.Pop()) }); n != 0 {
		t.Fatalf("Schedule/Pop/Release cycle allocates %.1f times", n)
	}
}
