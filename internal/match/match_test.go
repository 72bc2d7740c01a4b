package match

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestFIFOOrder checks plain queue semantics across interleaved push/pop.
func TestFIFOOrder(t *testing.T) {
	var f FIFO[int]
	next, want := 0, 0
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		if f.Len() == 0 || rng.Intn(2) == 0 {
			f.Push(next)
			next++
		} else {
			if got := f.Front(); got != want {
				t.Fatalf("Front = %d, want %d", got, want)
			}
			if got := f.Pop(); got != want {
				t.Fatalf("Pop = %d, want %d", got, want)
			}
			want++
		}
	}
	for f.Len() > 0 {
		if got := f.Pop(); got != want {
			t.Fatalf("drain Pop = %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("drained %d, pushed %d", want, next)
	}
}

// TestFIFONoPinning is the regression test for the `q = q[1:]` bug the
// deque replaces: a steady-state queue must not accumulate a dead prefix
// proportional to total throughput, and popped slots must be zeroed so
// their contents are collectable.
func TestFIFONoPinning(t *testing.T) {
	var f FIFO[*int]
	const depth = 8
	for i := 0; i < depth; i++ {
		v := i
		f.Push(&v)
	}
	for i := 0; i < 100000; i++ {
		f.Pop()
		v := i
		f.Push(&v)
		if f.head > 2*fifoCompactMin+depth {
			t.Fatalf("dead prefix grew to %d after %d ops", f.head, i)
		}
		if len(f.buf) > 2*(fifoCompactMin+depth) {
			t.Fatalf("buffer length grew to %d after %d ops", len(f.buf), i)
		}
	}
	// Every slot behind the head must have been zeroed.
	for i := 0; i < f.head; i++ {
		if f.buf[i] != nil {
			t.Fatalf("popped slot %d still holds a pointer", i)
		}
	}
}

// TestPostedWildcardOrder arms entries of all four wildcard classes and
// checks that Match always returns the earliest-armed acceptor.
func TestPostedWildcardOrder(t *testing.T) {
	var p Posted[string]
	e1 := p.Add(3, 7, "exact")            // 1st
	e2 := p.Add(3, AnyTag, "bySrc")       // 2nd
	e3 := p.Add(AnySource, 7, "byTag")    // 3rd
	e4 := p.Add(AnySource, AnyTag, "any") // 4th
	if p.Depth() != 4 || p.HighWater() != 4 {
		t.Fatalf("depth %d highWater %d", p.Depth(), p.HighWater())
	}
	pick := func(want string) {
		t.Helper()
		e := p.Match(3, 7)
		if e == nil || e.Item != want {
			t.Fatalf("Match(3,7) = %v, want %q", e, want)
		}
		p.Remove(e)
	}
	pick("exact")
	pick("bySrc")
	pick("byTag")
	pick("any")
	if e := p.Match(3, 7); e != nil {
		t.Fatalf("empty Match returned %q", e.Item)
	}
	_ = e1
	_ = e2
	_ = e3
	_ = e4
	// A selector that accepts a different arrival still works.
	p.Add(5, AnyTag, "late")
	if e := p.Match(5, 99); e == nil || e.Item != "late" {
		t.Fatal("bySrc selector did not accept wildcard tag")
	}
}

// TestPostedRemoveMidList cancels an entry in the middle of a bucket and
// checks that Match skips it.
func TestPostedRemoveMidList(t *testing.T) {
	var p Posted[int]
	p.Add(1, 1, 100)
	e := p.Add(1, 1, 200)
	p.Add(1, 1, 300)
	p.Remove(e)
	if p.Depth() != 2 {
		t.Fatalf("depth %d after remove", p.Depth())
	}
	got := p.Match(1, 1)
	p.Remove(got)
	if got.Item != 100 {
		t.Fatalf("first match %d", got.Item)
	}
	got = p.Match(1, 1)
	p.Remove(got)
	if got.Item != 300 {
		t.Fatalf("second match %d, want removed entry skipped", got.Item)
	}
}

// TestStoreViews buffers arrivals and pops through every wildcard
// combination, checking oldest-first order per view and depth
// accounting as nodes leave views they were not popped through.
func TestStoreViews(t *testing.T) {
	var s Store[int]
	s.Add(1, 10, 0)
	s.Add(2, 10, 1)
	s.Add(1, 20, 2)
	s.Add(2, 20, 3)
	if s.Depth() != 4 || s.HighWater() != 4 {
		t.Fatalf("depth %d highWater %d", s.Depth(), s.HighWater())
	}
	if nd := s.Peek(AnySource, AnyTag); nd == nil || nd.Item != 0 {
		t.Fatalf("global peek = %v", nd)
	}
	if item, src, tag, ok := s.Pop(2, AnyTag); !ok || item != 1 || src != 2 || tag != 10 {
		t.Fatalf("bySrc pop = %d <%d,%d> %v", item, src, tag, ok)
	}
	if item, src, tag, ok := s.Pop(AnySource, 20); !ok || item != 2 || src != 1 || tag != 20 {
		t.Fatalf("byTag pop = %d <%d,%d> %v", item, src, tag, ok)
	}
	if item, _, _, ok := s.Pop(2, 20); !ok || item != 3 {
		t.Fatalf("exact pop = %d %v", item, ok)
	}
	// Node 1 was consumed through the bySrc view; the global view must
	// skip it and surface node 0.
	if item, _, _, ok := s.Pop(AnySource, AnyTag); !ok || item != 0 {
		t.Fatalf("global pop = %d %v", item, ok)
	}
	if s.Depth() != 0 {
		t.Fatalf("depth %d after drain", s.Depth())
	}
	if item, _, _, ok := s.Pop(AnySource, AnyTag); ok {
		t.Fatalf("pop on empty store = %d", item)
	}
}

// TestStoreRandomAgainstReference drives a Store with random adds and
// wildcard pops and checks every answer against a brute-force reference
// queue.
func TestStoreRandomAgainstReference(t *testing.T) {
	type arrival struct {
		source, tag, item int
		consumed          bool
	}
	var ref []*arrival
	refPop := func(source, tag int) *arrival {
		for _, a := range ref {
			if a.consumed {
				continue
			}
			if (source == AnySource || a.source == source) && (tag == AnyTag || a.tag == tag) {
				a.consumed = true
				return a
			}
		}
		return nil
	}
	var s Store[int]
	rng := rand.New(rand.NewSource(42))
	sel := func() int {
		if rng.Intn(3) == 0 {
			return -1 // wildcard (AnySource / AnyTag)
		}
		return rng.Intn(4)
	}
	for i := 0; i < 20000; i++ {
		if rng.Intn(2) == 0 {
			src, tag := rng.Intn(4), rng.Intn(4)
			s.Add(src, tag, i)
			ref = append(ref, &arrival{source: src, tag: tag, item: i})
		} else {
			src, tag := sel(), sel()
			item, gotSrc, gotTag, ok := s.Pop(src, tag)
			want := refPop(src, tag)
			switch {
			case !ok && want == nil:
			case !ok || want == nil:
				t.Fatalf("op %d Pop(%d,%d): got %v want %v", i, src, tag, ok, want)
			case item != want.item || gotSrc != want.source || gotTag != want.tag:
				t.Fatalf("op %d Pop(%d,%d): got %d <%d,%d> want %d <%d,%d>", i, src, tag,
					item, gotSrc, gotTag, want.item, want.source, want.tag)
			}
		}
	}
}

// TestStoreExactPopsLeaveNoResidue is the unexpected-store leak: a
// consumer using exact <source, tag> selectors never looks at the
// per-source, per-tag or arrival-order views, so a node popped through its
// exact bucket must leave those too. 10 000 push/pop cycles across 4
// sources and 3 tags, with one long-lived arrival parked at the head of
// the arrival order, must keep every view within the live depth.
func TestStoreExactPopsLeaveNoResidue(t *testing.T) {
	var s Store[int]
	s.Add(9, 9, -1) // never popped: blocks the head of the arrival order
	views := func() map[string]int {
		lens := map[string]int{"order": s.order.Len()}
		for k, l := range s.exact {
			lens[fmt.Sprintf("exact%v", k)] = l.Len()
		}
		for k, l := range s.bySrc {
			lens[fmt.Sprintf("src%d", k)] = l.Len()
		}
		for k, l := range s.byTag {
			lens[fmt.Sprintf("tag%d", k)] = l.Len()
		}
		return lens
	}
	for i := 0; i < 10000; i++ {
		src, tag := i%4, i%3
		s.Add(src, tag, i)
		if i%2 == 1 {
			// Pop the previous arrival first, then this one: pops do not
			// always take the oldest node in every view.
			prev := i - 1
			if item, _, _, ok := s.Pop(prev%4, prev%3); !ok || item != prev {
				t.Fatalf("cycle %d: Pop(%d,%d) = %d %v", i, prev%4, prev%3, item, ok)
			}
			if item, _, _, ok := s.Pop(src, tag); !ok || item != i {
				t.Fatalf("cycle %d: Pop(%d,%d) = %d %v", i, src, tag, item, ok)
			}
		}
		for name, n := range views() {
			if n > s.Depth() {
				t.Fatalf("cycle %d: view %s holds %d nodes, live depth %d", i, name, n, s.Depth())
			}
		}
	}
	if s.Depth() != 1 || len(s.exact) != 1 || len(s.bySrc) != 1 || len(s.byTag) != 1 {
		t.Fatalf("after the cycles: depth %d, buckets exact %d src %d tag %d; want 1 each",
			s.Depth(), len(s.exact), len(s.bySrc), len(s.byTag))
	}
}

// TestStoreAddPopAllocatesNothing: a warmed Add/Pop cycle reuses the
// emptied bucket views and the popped nodes from the Store's free lists,
// so an arrival allocates nothing.
func TestStoreAddPopAllocatesNothing(t *testing.T) {
	var s Store[int]
	i := 0
	cycle := func() {
		src, tag := i%4, i%3
		s.Add(src, tag, i)
		if item, gotSrc, gotTag, ok := s.Pop(src, tag); !ok || item != i || gotSrc != src || gotTag != tag {
			t.Fatalf("cycle %d: Pop(%d,%d) = %d <%d,%d> %v", i, src, tag, item, gotSrc, gotTag, ok)
		}
		i++
	}
	for range 12 {
		cycle()
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("Add/Pop cycle allocates %.1f times, want 0", n)
	}
}
