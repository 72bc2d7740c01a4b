package beat

import (
	"testing"
	"time"
)

// A peer never heard from gets the start-up grace, one that has beaten
// gets the timeout, and any advance of the counter restarts the clock.
func TestMonitorGraceThenTimeout(t *testing.T) {
	p := Policy{Interval: time.Second, Timeout: 5 * time.Second, StartupGrace: 10 * time.Second}
	t0 := time.Unix(1000, 0)
	at := func(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }
	m := NewMonitor(t0)

	for _, step := range []struct {
		sec     int
		counter uint64
		stalled time.Duration
		dead    bool
	}{
		{6, 0, 6 * time.Second, false},  // past the timeout, inside the grace: still booting
		{11, 0, 11 * time.Second, true}, // past the grace without a single beat
		{12, 1, 0, false},               // first beat
		{17, 1, 5 * time.Second, false}, // exactly the timeout is not beyond it
		{18, 1, 6 * time.Second, true},  // beyond it: the grace no longer applies
		{19, 7, 0, false},               // any advance is a beat
		{24, 7, 5 * time.Second, false}, // and restarts the clock
		{25, 7, 6 * time.Second, true},
	} {
		stalled, dead := m.Observe(p, step.counter, at(step.sec))
		if stalled != step.stalled || dead != step.dead {
			t.Errorf("t=%ds counter=%d: stalled %v dead %v, want %v %v",
				step.sec, step.counter, stalled, dead, step.stalled, step.dead)
		}
	}
}

func TestPolicyDefaults(t *testing.T) {
	got := Policy{Timeout: time.Second}.WithDefaults()
	want := Policy{Interval: 25 * time.Millisecond, Timeout: time.Second, StartupGrace: 10 * time.Second}
	if got != want {
		t.Errorf("WithDefaults = %+v, want %+v", got, want)
	}
}
