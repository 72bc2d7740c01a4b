package span

import (
	"bytes"
	"encoding/json"
	"testing"
)

const (
	rt ID = iota
	put
	flush
	wait
)

// Self time is the span minus the part its children cover, with
// overlapping children counted once and children clipped to the parent.
func TestSelfTimes(t *testing.T) {
	recs := []Rec{
		{Op: 1, Name: put, Parent: rt, Start: 100, End: 130},   // 30
		{Op: 1, Name: flush, Parent: rt, Start: 120, End: 160}, // overlaps put by 10
		{Op: 1, Name: wait, Parent: rt, Start: 170, End: 250},  // runs 50 past the parent
		{Op: 1, Name: rt, Parent: None, Start: 90, End: 200},   // covered: 100..160 and 170..200
		{Op: 2, Name: put, Parent: rt, Start: 100, End: 150},   // other op: not a child of op 1's rt
		{Op: 2, Name: rt, Parent: None, Start: 100, End: 180},
	}
	want := []int64{30, 40, 80, 110 - 60 - 30, 50, 30}
	got := SelfTimes(recs)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of record %d = %d, want %d", i, got[i], want[i])
		}
	}
	st := Stats(recs)
	if st[rt].Count != 2 || st[put].Count != 2 || st[rt].DurP50 != 110 {
		t.Errorf("Stats = %+v", st)
	}
}

func TestRingKeepsTheNewestSpans(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 6; i++ {
		r.Add(uint32(i), put, None, int64(i), int64(i+1))
	}
	recs := r.Records()
	if len(recs) != 4 || recs[0].Op != 2 || recs[3].Op != 5 {
		t.Errorf("Records after wrap = %+v, want ops 2..5 oldest first", recs)
	}
	short := NewRing(4)
	short.Add(9, put, None, 1, 2)
	if recs := short.Records(); len(recs) != 1 || recs[0].Op != 9 {
		t.Errorf("Records before wrap = %+v", recs)
	}
}

// A nil ring is tracing off: no clock read, no record, no panic.
func TestNilRingIsOff(t *testing.T) {
	var r *Ring
	if r.Now() != 0 {
		t.Error("nil ring read the clock")
	}
	r.Add(1, put, None, 1, 2)
	if r.Records() != nil {
		t.Error("nil ring has records")
	}
	if on := NewRing(1); on.Now() <= 0 {
		t.Error("live ring did not read the clock")
	}
}

func TestWriteChromeIsValidTraceJSON(t *testing.T) {
	var buf bytes.Buffer
	names := []string{"rt", `core."PutNotify"`}
	err := WriteChrome(&buf, names, [][]Rec{
		{{Op: 7, Name: put, Parent: rt, Start: 1500, End: 4000}, {Op: 7, Name: rt, Parent: None, Start: 1000, End: 5000}},
		{{Op: 7, Name: rt, Parent: None, Start: 2000, End: 3000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph, Name string
			Tid      int
			Ts, Dur  float64
			Args     map[string]any
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 5 { // 2 thread names + 3 spans
		t.Fatalf("%d events, want 5", len(doc.TraceEvents))
	}
	e := doc.TraceEvents[1]
	if e.Ph != "X" || e.Name != names[1] || e.Ts != 1.5 || e.Dur != 2.5 || e.Args["op"] != 7.0 || e.Args["parent"] != "rt" {
		t.Errorf("first span event = %+v", e)
	}
	if doc.TraceEvents[4].Tid != 1 {
		t.Errorf("rank 1's span is on thread %d", doc.TraceEvents[4].Tid)
	}
}
