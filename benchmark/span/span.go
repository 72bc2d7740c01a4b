// Package span is the benchmark-side tracer: a preallocated in-memory ring
// of (op id, span name, parent, start, end) records written around the calls
// a workload makes into a layer, self-time arithmetic over those records,
// and a Chrome trace-event writer. Nothing here touches the program under
// test; spans inside the layers are a later change.
package span

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"time"
)

// ID names a span kind; each workload declares its own small table.
type ID uint8

// None is the parent of a root span.
const None ID = 0xFF

// Rec is one finished span.
type Rec struct {
	Op         uint32 // spans of one operation share it
	Name       ID
	Parent     ID    // name of the enclosing span of the same op, or None
	Start, End int64 // Clock() nanoseconds
}

var epoch = time.Now()

// Clock is the benchmark's monotonic clock in nanoseconds. time.Since on a
// monotonic base reads one clock, where time.Now reads two.
func Clock() int64 { return int64(time.Since(epoch)) }

// Ring keeps the most recent spans of one rank. A nil *Ring is tracing
// off: Now and Add cost one branch and read no clock.
type Ring struct {
	recs []Rec
	next uint64
}

// NewRing preallocates room for capacity spans.
func NewRing(capacity int) *Ring { return &Ring{recs: make([]Rec, capacity)} }

// Now reads the clock when tracing is on and returns 0 when it is off, so
// an untraced loop pays for no timestamps it will not use.
func (r *Ring) Now() int64 {
	if r == nil {
		return 0
	}
	return Clock()
}

// Add records a finished span, overwriting the oldest once the ring is full.
func (r *Ring) Add(op uint32, name, parent ID, start, end int64) {
	if r == nil {
		return
	}
	r.recs[r.next%uint64(len(r.recs))] = Rec{Op: op, Name: name, Parent: parent, Start: start, End: end}
	r.next++
}

// Records returns the retained spans, oldest first.
func (r *Ring) Records() []Rec {
	if r == nil {
		return nil
	}
	n := uint64(len(r.recs))
	if r.next <= n {
		return r.recs[:r.next]
	}
	out := make([]Rec, 0, n)
	out = append(out, r.recs[r.next%n:]...)
	return append(out, r.recs[:r.next%n]...)
}

// SelfTimes returns each record's self time: its duration minus the part
// of its interval covered by the spans of the same op that name it as
// parent. Overlapping children are counted once.
func SelfTimes(recs []Rec) []int64 {
	byOp := make(map[uint32][]int)
	for i, r := range recs {
		byOp[r.Op] = append(byOp[r.Op], i)
	}
	self := make([]int64, len(recs))
	var kids [][2]int64
	for i, r := range recs {
		kids = kids[:0]
		for _, j := range byOp[r.Op] {
			c := recs[j]
			if j == i || c.Parent != r.Name {
				continue
			}
			s, e := max(c.Start, r.Start), min(c.End, r.End)
			if e > s {
				kids = append(kids, [2]int64{s, e})
			}
		}
		slices.SortFunc(kids, func(a, b [2]int64) int { return int(a[0] - b[0]) })
		covered, edge := int64(0), r.Start
		for _, k := range kids {
			if k[1] <= edge {
				continue
			}
			covered += k[1] - max(k[0], edge)
			edge = k[1]
		}
		self[i] = r.End - r.Start - covered
	}
	return self
}

// NameStat summarises the spans of one name.
type NameStat struct {
	Count   int
	DurP50  float64 // median duration, ns
	SelfP50 float64 // median self time, ns
}

// Stats groups records by name and reports count and median duration and
// self time of each.
func Stats(recs []Rec) map[ID]NameStat {
	self := SelfTimes(recs)
	durs, selfs := map[ID][]int64{}, map[ID][]int64{}
	for i, r := range recs {
		durs[r.Name] = append(durs[r.Name], r.End-r.Start)
		selfs[r.Name] = append(selfs[r.Name], self[i])
	}
	out := make(map[ID]NameStat, len(durs))
	for id, d := range durs {
		s := selfs[id]
		slices.Sort(d)
		slices.Sort(s)
		out[id] = NameStat{Count: len(d), DurP50: float64(d[len(d)/2]), SelfP50: float64(s[len(s)/2])}
	}
	return out
}

// WriteChrome writes the spans of every rank as Chrome trace-event JSON
// (load it at chrome://tracing or ui.perfetto.dev): one complete event per
// span, one thread per rank, times in microseconds.
func WriteChrome(w io.Writer, names []string, perRank [][]Rec) error {
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	sep := func() {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		bw.WriteByte('\n')
	}
	name := func(id ID) string {
		if int(id) < len(names) {
			return names[id]
		}
		return ""
	}
	for rank, recs := range perRank {
		sep()
		fmt.Fprintf(bw, `{"ph":"M","name":"thread_name","pid":0,"tid":%d,"args":{"name":"rank %d"}}`, rank, rank)
		for _, r := range recs {
			sep()
			fmt.Fprintf(bw, `{"ph":"X","name":%q,"pid":0,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"op":%d,"parent":%q}}`,
				name(r.Name), rank, float64(r.Start)/1e3, float64(r.End-r.Start)/1e3, r.Op, name(r.Parent))
		}
	}
	fmt.Fprint(bw, "\n]}\n")
	return bw.Flush()
}
