// Package match holds the hash-bucketed <source, tag> matching containers
// shared by the Notified Access notification matcher (internal/core) and
// the Message Passing tag matcher (internal/mp), plus the head-indexed
// FIFO the fabric's completion and message queues are built on.
//
// The containers implement MPI-style matching semantics generically:
//
//   - Posted[T] indexes armed receive requests by <source, tag> with
//     AnySource/AnyTag wildcards. An incoming <source, tag> pair is
//     matched against at most four candidate lists (exact, source-only,
//     tag-only, fully wild) and the earliest-armed candidate wins, so a
//     probe costs O(1) in the number of armed requests.
//   - Store[T] buffers unexpected arrivals in four views of the same
//     nodes (exact bucket, per-source, per-tag, global arrival order) so
//     a consumer with or without wildcards pops the oldest matching
//     arrival in O(1) in the store depth.
//
// Posted removes lazily: a cancelled entry is marked and skipped when it
// later surfaces at a list head, which keeps Remove O(1) without
// doubly-linked bookkeeping. Store cannot: a consumer popping through one
// view never looks at the other three, so a lazily removed node would stay
// linked there for good. Its views are intrusive doubly-linked lists and
// Pop unlinks the node from all four.
package match

// AnySource and AnyTag are the wildcard values understood by Posted and
// Store. They mirror MPI_ANY_SOURCE/MPI_ANY_TAG and the values used by
// internal/core and internal/mp.
const (
	AnySource = -1
	AnyTag    = -1
)

// key is a concrete <source, tag> bucket address.
type key struct {
	source, tag int
}

// fifoCompactMin is the dead-prefix length at which a FIFO copies its
// live suffix down to index zero. Compacting only when the dead prefix
// is both long and at least half the buffer keeps Pop amortized O(1).
const fifoCompactMin = 32

// FIFO is a head-indexed queue. Pop advances a head index instead of
// re-slicing (`q = q[1:]` keeps the popped prefix reachable through the
// backing array), zeroes the vacated slot so popped elements are
// collectable immediately, and compacts the buffer once the dead prefix
// dominates so a long-lived queue's footprint tracks its live depth, not
// its all-time high water.
type FIFO[T any] struct {
	buf  []T
	head int
}

// Len reports the number of queued elements.
func (f *FIFO[T]) Len() int { return len(f.buf) - f.head }

// Push appends v at the tail.
func (f *FIFO[T]) Push(v T) { f.buf = append(f.buf, v) }

// Front returns the head element without removing it. It panics on an
// empty FIFO, like indexing an empty slice would.
func (f *FIFO[T]) Front() T { return f.buf[f.head] }

// Pop removes and returns the head element.
func (f *FIFO[T]) Pop() T {
	v := f.buf[f.head]
	var zero T
	f.buf[f.head] = zero
	f.head++
	if f.head == len(f.buf) {
		f.buf = f.buf[:0]
		f.head = 0
	} else if f.head >= fifoCompactMin && f.head*2 >= len(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:len(f.buf)])
		f.buf = f.buf[:n]
		f.head = 0
	}
	return v
}

// PostedEntry is one armed entry in a Posted index. Entries stay linked
// in their wildcard-class list after removal and are skipped lazily when
// they surface at a head.
type PostedEntry[T any] struct {
	Item    T
	Source  int
	Tag     int
	seq     uint64
	removed bool
}

// Posted is the wildcard-aware posted-receive index. Entries are armed
// with a (possibly wildcard) <source, tag> selector; Match resolves a
// concrete arrival to the earliest-armed entry whose selector accepts
// it.
type Posted[T any] struct {
	exact     map[key]*FIFO[*PostedEntry[T]] // concrete source, concrete tag
	bySrc     map[int]*FIFO[*PostedEntry[T]] // concrete source, AnyTag
	byTag     map[int]*FIFO[*PostedEntry[T]] // AnySource, concrete tag
	anyAny    FIFO[*PostedEntry[T]]          // AnySource, AnyTag
	seq       uint64
	depth     int
	highWater int
}

// Add arms item under the given (possibly wildcard) selector and returns
// the entry handle used to Remove it later.
func (p *Posted[T]) Add(source, tag int, item T) *PostedEntry[T] {
	p.seq++
	e := &PostedEntry[T]{Item: item, Source: source, Tag: tag, seq: p.seq}
	switch {
	case source != AnySource && tag != AnyTag:
		if p.exact == nil {
			p.exact = make(map[key]*FIFO[*PostedEntry[T]])
		}
		pushBucket(p.exact, key{source, tag}, e)
	case source != AnySource:
		if p.bySrc == nil {
			p.bySrc = make(map[int]*FIFO[*PostedEntry[T]])
		}
		pushBucket(p.bySrc, source, e)
	case tag != AnyTag:
		if p.byTag == nil {
			p.byTag = make(map[int]*FIFO[*PostedEntry[T]])
		}
		pushBucket(p.byTag, tag, e)
	default:
		p.anyAny.Push(e)
	}
	p.depth++
	if p.depth > p.highWater {
		p.highWater = p.depth
	}
	return e
}

// Remove unarms a previously added entry. The entry is skipped lazily
// when it reaches the head of its list.
func (p *Posted[T]) Remove(e *PostedEntry[T]) {
	if e.removed {
		return
	}
	e.removed = true
	p.depth--
}

// Match returns the earliest-armed entry whose selector accepts the
// concrete <source, tag>, or nil. The entry stays armed; the caller
// decides whether to Remove it (consume) or leave it (peek).
func (p *Posted[T]) Match(source, tag int) *PostedEntry[T] {
	var best *PostedEntry[T]
	consider := func(f *FIFO[*PostedEntry[T]]) {
		if f == nil {
			return
		}
		trimPosted(f)
		if f.Len() == 0 {
			return
		}
		if e := f.Front(); best == nil || e.seq < best.seq {
			best = e
		}
	}
	consider(p.exact[key{source, tag}])
	consider(p.bySrc[source])
	consider(p.byTag[tag])
	consider(&p.anyAny)
	if best != nil {
		return best
	}
	p.sweepEmpty()
	return nil
}

// sweepEmpty drops bucket FIFOs that trimmed down to nothing so the maps
// don't accumulate one empty bucket per distinct selector ever used.
func (p *Posted[T]) sweepEmpty() {
	for k, f := range p.exact {
		if trimPosted(f); f.Len() == 0 {
			delete(p.exact, k)
		}
	}
	for k, f := range p.bySrc {
		if trimPosted(f); f.Len() == 0 {
			delete(p.bySrc, k)
		}
	}
	for k, f := range p.byTag {
		if trimPosted(f); f.Len() == 0 {
			delete(p.byTag, k)
		}
	}
}

// Depth reports the number of currently armed entries.
func (p *Posted[T]) Depth() int { return p.depth }

// HighWater reports the maximum armed depth ever reached.
func (p *Posted[T]) HighWater() int { return p.highWater }

// trimPosted pops removed entries off the head of a posted list.
func trimPosted[T any](f *FIFO[*PostedEntry[T]]) {
	for f.Len() > 0 && f.Front().removed {
		f.Pop()
	}
}

// pushBucket appends e to the bucket for k, creating it on first use.
func pushBucket[K comparable, E any](m map[K]*FIFO[E], k K, e E) {
	f := m[k]
	if f == nil {
		f = &FIFO[E]{}
		m[k] = f
	}
	f.Push(e)
}

// StoreNode is one buffered arrival in a Store. Its concrete Source and
// Tag are exposed so wildcard consumers learn what they matched. A node is
// valid until it is popped: Pop recycles it for a later Add.
type StoreNode[T any] struct {
	Item   T
	Source int
	Tag    int
	links  [numViews]struct{ prev, next *StoreNode[T] }
}

// The four views every stored node is linked into.
const (
	viewExact = iota
	viewSrc
	viewTag
	viewOrder
	numViews
)

// storeList is one view: an intrusive doubly-linked list in arrival order
// threaded through the nodes' links[v].
type storeList[T any] struct {
	head, tail *StoreNode[T]
	n          int
}

// Len reports the number of nodes linked into the view.
func (l *storeList[T]) Len() int { return l.n }

func (l *storeList[T]) push(nd *StoreNode[T], v int) {
	nd.links[v].prev = l.tail
	if l.tail != nil {
		l.tail.links[v].next = nd
	} else {
		l.head = nd
	}
	l.tail = nd
	l.n++
}

func (l *storeList[T]) unlink(nd *StoreNode[T], v int) {
	ln := &nd.links[v]
	if ln.prev != nil {
		ln.prev.links[v].next = ln.next
	} else {
		l.head = ln.next
	}
	if ln.next != nil {
		ln.next.links[v].prev = ln.prev
	} else {
		l.tail = ln.prev
	}
	ln.prev, ln.next = nil, nil
	l.n--
}

// Store is the bucketed unexpected-arrival queue. Every node is linked
// into four views — its exact <source, tag> bucket, a per-source list, a
// per-tag list, and the global arrival order — so Peek/Pop serve any
// wildcard combination from a single list head. A bucket leaves its map as
// soon as its last node is popped, and its view goes on a free list for
// the next new bucket; popped nodes go on a free list of their own, so a
// steady Add/Pop cycle allocates nothing.
type Store[T any] struct {
	exact     map[key]*storeList[T]
	bySrc     map[int]*storeList[T]
	byTag     map[int]*storeList[T]
	order     storeList[T]
	free      []*storeList[T] // emptied bucket views, reused by bucket
	spare     []*StoreNode[T] // popped nodes, reused by Add
	depth     int
	highWater int
}

// Add buffers an arrival with concrete <source, tag>.
func (s *Store[T]) Add(source, tag int, item T) {
	var nd *StoreNode[T]
	if n := len(s.spare); n > 0 {
		nd = s.spare[n-1]
		s.spare = s.spare[:n-1]
	} else {
		nd = &StoreNode[T]{}
	}
	nd.Item, nd.Source, nd.Tag = item, source, tag
	if s.exact == nil {
		s.exact = make(map[key]*storeList[T])
		s.bySrc = make(map[int]*storeList[T])
		s.byTag = make(map[int]*storeList[T])
	}
	bucket(s.exact, key{source, tag}, &s.free).push(nd, viewExact)
	bucket(s.bySrc, source, &s.free).push(nd, viewSrc)
	bucket(s.byTag, tag, &s.free).push(nd, viewTag)
	s.order.push(nd, viewOrder)
	s.depth++
	if s.depth > s.highWater {
		s.highWater = s.depth
	}
}

// bucket returns the view for k, taking one from free (or allocating) on
// first use.
func bucket[K comparable, T any](m map[K]*storeList[T], k K, free *[]*storeList[T]) *storeList[T] {
	l := m[k]
	if l == nil {
		if n := len(*free); n > 0 {
			l = (*free)[n-1]
			*free = (*free)[:n-1]
		} else {
			l = &storeList[T]{}
		}
		m[k] = l
	}
	return l
}

// view picks the single list that serves a (possibly wildcard) selector.
func (s *Store[T]) view(source, tag int) *storeList[T] {
	switch {
	case source != AnySource && tag != AnyTag:
		return s.exact[key{source, tag}]
	case source != AnySource:
		return s.bySrc[source]
	case tag != AnyTag:
		return s.byTag[tag]
	default:
		return &s.order
	}
}

// Peek returns the oldest buffered arrival matching the selector without
// consuming it, or nil.
func (s *Store[T]) Peek(source, tag int) *StoreNode[T] {
	if l := s.view(source, tag); l != nil {
		return l.head
	}
	return nil
}

// Pop consumes the oldest buffered arrival matching the selector and
// returns its item and concrete source and tag; ok is false when none
// matches. The node leaves all four views and goes on the spare list.
func (s *Store[T]) Pop(source, tag int) (item T, src, tg int, ok bool) {
	nd := s.Peek(source, tag)
	if nd == nil {
		return item, 0, 0, false
	}
	unlinkBucket(s.exact, key{nd.Source, nd.Tag}, nd, viewExact, &s.free)
	unlinkBucket(s.bySrc, nd.Source, nd, viewSrc, &s.free)
	unlinkBucket(s.byTag, nd.Tag, nd, viewTag, &s.free)
	s.order.unlink(nd, viewOrder)
	s.depth--
	out := *nd
	*nd = StoreNode[T]{} // a spare node keeps no item alive
	s.spare = append(s.spare, nd)
	return out.Item, out.Source, out.Tag, true
}

// unlinkBucket removes nd from the bucket view for k, dropping the bucket
// onto free once empty so the maps hold only live selectors.
func unlinkBucket[K comparable, T any](m map[K]*storeList[T], k K, nd *StoreNode[T], v int, free *[]*storeList[T]) {
	l := m[k]
	if l.unlink(nd, v); l.n == 0 {
		delete(m, k)
		*free = append(*free, l)
	}
}

// Depth reports the number of live (unconsumed) buffered arrivals.
func (s *Store[T]) Depth() int { return s.depth }

// HighWater reports the maximum live depth ever reached.
func (s *Store[T]) HighWater() int { return s.highWater }
