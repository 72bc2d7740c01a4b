package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/exec"
	"repro/internal/fabric"
	"repro/internal/rma"
	"repro/internal/runtime"
	"repro/internal/simtime"
)

func runBoth(t *testing.T, ranks int, body func(p *runtime.Proc)) {
	t.Helper()
	for _, mode := range []exec.Mode{exec.Sim, exec.Real} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			if err := runtime.Run(runtime.Options{Ranks: ranks, Mode: mode}, body); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestImmEncoding(t *testing.T) {
	cases := []struct{ src, tag int }{{0, 0}, {1, 99}, {65535, 65535}, {1234, 4321}}
	for _, c := range cases {
		s, g := DecodeImm(EncodeImm(c.src, c.tag))
		if s != c.src || g != c.tag {
			t.Errorf("roundtrip (%d,%d) -> (%d,%d)", c.src, c.tag, s, g)
		}
	}
}

func TestImmEncodingProperty(t *testing.T) {
	f := func(src, tag uint16) bool {
		s, g := DecodeImm(EncodeImm(int(src), int(tag)))
		return s == int(src) && g == int(tag)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestImmEncodeOutOfRangePanics(t *testing.T) {
	for _, c := range [][2]int{{-1, 0}, {0, -1}, {70000, 0}, {0, 70000}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("EncodeImm(%d,%d) should panic", c[0], c[1])
				}
			}()
			EncodeImm(c[0], c[1])
		}()
	}
}

// TestImmEncodeBounds pins the documented panic bounds of both immediate
// half-words: MaxSource and MaxTag are the largest encodable values, and
// one past either bound panics.
func TestImmEncodeBounds(t *testing.T) {
	if MaxSource != 1<<16-1 || MaxTag != 1<<16-1 {
		t.Fatalf("immediate half-word bounds changed: MaxSource=%d MaxTag=%d", MaxSource, MaxTag)
	}
	imm := EncodeImm(MaxSource, MaxTag)
	if s, tag := DecodeImm(imm); s != MaxSource || tag != MaxTag {
		t.Fatalf("round trip at bounds: got (%d,%d)", s, tag)
	}
	mustPanic := func(source, tag int) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("EncodeImm(%d,%d) should panic", source, tag)
			}
		}()
		EncodeImm(source, tag)
	}
	mustPanic(MaxSource+1, 0)
	mustPanic(0, MaxTag+1)
}

func TestPingPongListing1(t *testing.T) {
	// The paper's Listing 1 ping-pong, transcribed.
	runBoth(t, 2, func(p *runtime.Proc) {
		const maxSize = 512
		win := rma.Allocate(p, 2*maxSize)
		defer win.Free()
		partner := 1 - p.Rank()
		const customTag = 99
		req := NotifyInit(win, partner, customTag, 1)
		defer req.Free()
		for size := 8; size < maxSize; size *= 2 {
			buf := make([]byte, size)
			for i := range buf {
				buf[i] = byte(size + i)
			}
			if p.Rank() == 0 { // client
				PutNotify(win, partner, 0, buf, customTag)
				win.Flush(partner)
				req.Start()
				st := req.Wait()
				if st.Source != partner || st.Tag != customTag {
					t.Errorf("pong status %+v", st)
				}
				if !bytes.Equal(win.Buffer()[maxSize:maxSize+size], buf) {
					t.Errorf("size %d: pong payload mismatch", size)
				}
			} else { // server
				req.Start()
				st := req.Wait()
				if st.Source != partner || st.Tag != customTag {
					t.Errorf("ping status %+v", st)
				}
				PutNotify(win, partner, maxSize, win.Buffer()[:size], customTag)
				win.Flush(partner)
			}
		}
	})
}

func TestNotificationOnly(t *testing.T) {
	// Zero-byte payload: pure notification.
	runBoth(t, 2, func(p *runtime.Proc) {
		win := rma.Allocate(p, 8)
		defer win.Free()
		if p.Rank() == 0 {
			PutNotify(win, 1, 0, nil, 5)
			win.Flush(1)
		} else {
			req := NotifyInit(win, 0, 5, 1)
			req.Start()
			st := req.Wait()
			if st.Source != 0 || st.Tag != 5 {
				t.Errorf("status %+v", st)
			}
			req.Free()
		}
	})
}

func TestWildcardAnySourceAnyTag(t *testing.T) {
	const ranks = 4
	runBoth(t, ranks, func(p *runtime.Proc) {
		win := rma.Allocate(p, 8*ranks)
		defer win.Free()
		if p.Rank() != 0 {
			PutNotify(win, 0, 8*p.Rank(), []byte{byte(p.Rank())}, 100+p.Rank())
			win.Flush(0)
		} else {
			req := NotifyInit(win, AnySource, AnyTag, 1)
			seen := map[int]bool{}
			for i := 0; i < ranks-1; i++ {
				req.Start()
				st := req.Wait()
				if st.Tag != 100+st.Source {
					t.Errorf("status %+v", st)
				}
				seen[st.Source] = true
			}
			if len(seen) != ranks-1 {
				t.Errorf("sources %v", seen)
			}
			req.Free()
		}
	})
}

func TestCountingNotifications(t *testing.T) {
	// The tree-reduction pattern: one request waits for n children.
	const ranks = 5
	runBoth(t, ranks, func(p *runtime.Proc) {
		win := rma.Allocate(p, 8*ranks)
		defer win.Free()
		if p.Rank() != 0 {
			PutNotify(win, 0, 8*p.Rank(), []byte{byte(p.Rank() * 3)}, 7)
			win.Flush(0)
		} else {
			req := NotifyInit(win, AnySource, 7, ranks-1)
			req.Start()
			req.Wait()
			if req.Matched() != ranks-1 {
				t.Errorf("matched = %d", req.Matched())
			}
			for i := 1; i < ranks; i++ {
				if win.Buffer()[8*i] != byte(i*3) {
					t.Errorf("child %d data missing", i)
				}
			}
			req.Free()
		}
	})
}

func TestMatchingSpecificTagLeavesOthersQueued(t *testing.T) {
	runBoth(t, 2, func(p *runtime.Proc) {
		win := rma.Allocate(p, 8)
		defer win.Free()
		if p.Rank() == 0 {
			for _, tag := range []int{1, 2, 3} {
				PutNotify(win, 1, 0, []byte{byte(tag)}, tag)
				win.Flush(1) // ensure arrival order 1,2,3
			}
		} else {
			// Match tag 2 first.
			req2 := NotifyInit(win, 0, 2, 1)
			req2.Start()
			if st := req2.Wait(); st.Tag != 2 {
				t.Errorf("req2 status %+v", st)
			}
			if PendingNotifications(win) != 1 { // tag 1 parked in UQ; tag 3 may still be in CQ
				// Drain: tag 3 might not have been pulled from the CQ yet.
			}
			reqAny := NotifyInit(win, AnySource, AnyTag, 1)
			reqAny.Start()
			if st := reqAny.Wait(); st.Tag != 1 {
				t.Errorf("oldest should match first, got tag %d", st.Tag)
			}
			reqAny.Start()
			if st := reqAny.Wait(); st.Tag != 3 {
				t.Errorf("remaining tag = %d", st.Tag)
			}
			req2.Free()
			reqAny.Free()
		}
	})
}

func TestArrivalOrderPreserved(t *testing.T) {
	// Queue semantics (paper §VII): wildcard matching returns notifications
	// in arrival order.
	runBoth(t, 2, func(p *runtime.Proc) {
		const n = 20
		win := rma.Allocate(p, 8)
		defer win.Free()
		if p.Rank() == 0 {
			for i := 0; i < n; i++ {
				PutNotify(win, 1, 0, nil, 100+i)
			}
			win.Flush(1)
		} else {
			req := NotifyInit(win, AnySource, AnyTag, 1)
			for i := 0; i < n; i++ {
				req.Start()
				st := req.Wait()
				if st.Tag != 100+i {
					t.Fatalf("arrival %d: tag %d", i, st.Tag)
				}
			}
			req.Free()
		}
	})
}

func TestGetNotifyConsumerManagedBuffering(t *testing.T) {
	// Paper §VI-B: the consumer gets data from the producer; the producer
	// learns via the notification that its buffer may be reused.
	runBoth(t, 2, func(p *runtime.Proc) {
		win := rma.Allocate(p, 64)
		defer win.Free()
		if p.Rank() == 0 { // producer: owns the data
			copy(win.Buffer(), []byte("produced data"))
			p.Barrier()
			req := NotifyInit(win, 1, 44, 1)
			req.Start()
			st := req.Wait() // buffer-reusable notification
			if st.Source != 1 || st.Tag != 44 {
				t.Errorf("status %+v", st)
			}
			copy(win.Buffer(), []byte("OVERWRITTEN!!")) // now safe
			req.Free()
			p.Barrier()
		} else { // consumer pulls
			p.Barrier()
			dst := make([]byte, 13)
			op := GetNotify(win, 0, 0, dst, 44)
			op.Await(p.Proc)
			if !bytes.Equal(dst, []byte("produced data")) {
				t.Errorf("got %q", dst)
			}
			p.Barrier()
		}
	})
}

func TestNotificationsRoutedPerWindow(t *testing.T) {
	runBoth(t, 2, func(p *runtime.Proc) {
		a := rma.Allocate(p, 8)
		b := rma.Allocate(p, 8)
		defer a.Free()
		defer b.Free()
		if p.Rank() == 0 {
			PutNotify(b, 1, 0, []byte{2}, 9) // window b first
			win := a
			PutNotify(win, 1, 0, []byte{1}, 9)
			win.Flush(1)
			b.Flush(1)
		} else {
			reqA := NotifyInit(a, 0, 9, 1)
			reqB := NotifyInit(b, 0, 9, 1)
			reqA.Start()
			reqB.Start()
			if st := reqA.Wait(); st.Tag != 9 {
				t.Errorf("a status %+v", st)
			}
			if a.Buffer()[0] != 1 {
				t.Error("a data wrong")
			}
			if st := reqB.Wait(); st.Tag != 9 {
				t.Errorf("b status %+v", st)
			}
			if b.Buffer()[0] != 2 {
				t.Error("b data wrong")
			}
			reqA.Free()
			reqB.Free()
		}
	})
}

func TestPersistentRequestReuse(t *testing.T) {
	runBoth(t, 2, func(p *runtime.Proc) {
		win := rma.Allocate(p, 8)
		defer win.Free()
		const rounds = 10
		if p.Rank() == 0 {
			req := NotifyInit(win, 1, 1, 1)
			for i := 0; i < rounds; i++ {
				req.Start()
				req.Wait()
				PutNotify(win, 1, 0, []byte{byte(i)}, 2)
				win.Flush(1)
			}
			req.Free()
		} else {
			req := NotifyInit(win, 0, 2, 1)
			for i := 0; i < rounds; i++ {
				PutNotify(win, 0, 0, []byte{byte(i)}, 1)
				win.Flush(0)
				req.Start()
				req.Wait()
			}
			req.Free()
		}
	})
}

func TestTestNonBlocking(t *testing.T) {
	runBoth(t, 2, func(p *runtime.Proc) {
		win := rma.Allocate(p, 8)
		defer win.Free()
		if p.Rank() == 1 {
			req := NotifyInit(win, 0, 1, 1)
			req.Start()
			if req.Test() {
				t.Error("Test true before any notification")
			}
			p.Barrier()
			for !req.Test() {
				p.Yield()
			}
			if st := req.Status(); st.Tag != 1 {
				t.Errorf("status %+v", st)
			}
			// Inactive request: Test stays true.
			if !req.Test() {
				t.Error("Test false after completion")
			}
			req.Free()
		} else {
			p.Barrier()
			PutNotify(win, 1, 0, []byte{1}, 1)
			win.Flush(1)
		}
	})
}

func TestRequestLifecycleErrors(t *testing.T) {
	err := runtime.Run(runtime.Options{Ranks: 1, Mode: exec.Sim}, func(p *runtime.Proc) {
		win := rma.Allocate(p, 8)
		req := NotifyInit(win, AnySource, AnyTag, 1)
		req.Start()
		req.Start() // double start
	})
	if err == nil {
		t.Fatal("double Start must fail")
	}
	err = runtime.Run(runtime.Options{Ranks: 1, Mode: exec.Sim}, func(p *runtime.Proc) {
		win := rma.Allocate(p, 8)
		req := NotifyInit(win, AnySource, AnyTag, 1)
		req.Free()
		req.Free() // double free
	})
	if err == nil {
		t.Fatal("double Free must fail")
	}
	err = runtime.Run(runtime.Options{Ranks: 1, Mode: exec.Sim}, func(p *runtime.Proc) {
		win := rma.Allocate(p, 8)
		req := NotifyInit(win, AnySource, AnyTag, 1)
		req.Free()
		req.Test()
	})
	if err == nil {
		t.Fatal("Test after Free must fail")
	}
	err = runtime.Run(runtime.Options{Ranks: 1, Mode: exec.Sim}, func(p *runtime.Proc) {
		win := rma.Allocate(p, 8)
		NotifyInit(win, AnySource, AnyTag, 0) // bad count
	})
	if err == nil {
		t.Fatal("zero expectedCount must fail")
	}
}

func TestSimNAPutSingleTransaction(t *testing.T) {
	// Figure 2d: notified access needs ONE network transaction for data +
	// notification (the flush ack is off the critical path and the only
	// other packet).
	w := runtime.NewWorld(runtime.Options{Ranks: 2, Mode: exec.Sim})
	var delta fabric.CounterSnapshot
	err := w.Run(func(p *runtime.Proc) {
		win := rma.Allocate(p, 8)
		p.Barrier()
		before := w.Fabric().Stats.Snapshot()
		if p.Rank() == 0 {
			PutNotify(win, 1, 0, []byte{1}, 3)
			win.Flush(1)
		} else {
			req := NotifyInit(win, 0, 3, 1)
			req.Start()
			req.Wait()
			req.Free()
		}
		p.Barrier()
		if p.Rank() == 0 {
			delta = w.Fabric().Stats.Snapshot().Sub(before)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Exclude the two barriers (2 ctrl msgs each per non-root rank = 4).
	if got := delta.DataPackets; got != 1 {
		t.Errorf("NA put data packets = %d, want 1", got)
	}
	if got := delta.AckPackets; got != 1 {
		t.Errorf("NA put acks = %d, want 1", got)
	}
}

func TestSimNAHalfLatencyModel(t *testing.T) {
	// The target must observe completion at
	// o_s + L + G*s + o_r (+ matching costs) — paper §V-A.
	w := runtime.NewWorld(runtime.Options{Ranks: 2, Mode: exec.Sim})
	m := w.Options().Model
	size := 256
	var tSend, tDone simtime.Time
	err := w.Run(func(p *runtime.Proc) {
		win := rma.Allocate(p, size)
		req := NotifyInit(win, AnySource, AnyTag, 1)
		req.Start() // arm before the racey barrier exit
		p.Barrier()
		if p.Rank() == 0 {
			tSend = p.Now()
			PutNotify(win, 1, 0, make([]byte, size), 0)
			win.Flush(1)
		} else {
			req.Wait()
			tDone = p.Now()
		}
		req.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := tDone.Sub(tSend)
	want := m.OSend + m.FMA.Time(size) + m.ORecv + m.TMatchScan
	slack := 2 * m.TMatchScan
	if elapsed < want-slack || elapsed > want+slack {
		t.Errorf("NA latency = %v, want ~%v", elapsed, want)
	}
}

// Property test: for a random interleaving of tagged notifications and a
// random sequence of (source, tag) requests, the Notified Access matching
// equals a reference queue model.
func TestMatchingEquivalentToReferenceModel(t *testing.T) {
	type query struct {
		source, tag int
		count       int
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const senders = 3
		n := 5 + rng.Intn(20)
		type notif struct{ src, tag int }
		notifs := make([]notif, n)
		for i := range notifs {
			notifs[i] = notif{src: 1 + rng.Intn(senders), tag: rng.Intn(4)}
		}
		queries := make([]query, 3+rng.Intn(5))
		for i := range queries {
			q := query{source: AnySource, tag: AnyTag, count: 1 + rng.Intn(2)}
			if rng.Intn(2) == 0 {
				q.source = 1 + rng.Intn(senders)
			}
			if rng.Intn(2) == 0 {
				q.tag = rng.Intn(4)
			}
			queries[i] = q
		}

		// Reference: simple FIFO queue with linear matching. Its length
		// after each query is the store depth the matcher must report.
		ref := make([]notif, len(notifs))
		copy(ref, notifs)
		refMatch := func(q query) (last notif, ok bool) {
			matched := 0
			kept := ref[:0:0]
			for _, nt := range ref {
				if matched < q.count &&
					(q.source == AnySource || q.source == nt.src) &&
					(q.tag == AnyTag || q.tag == nt.tag) {
					matched++
					last = nt
					continue
				}
				kept = append(kept, nt)
			}
			ref = kept
			return last, matched >= q.count
		}

		type result struct {
			st    Status
			ok    bool
			depth int
		}
		var gotResults, wantResults []result
		for _, q := range queries {
			nt, ok := refMatch(q)
			wantResults = append(wantResults, result{Status{Source: nt.src, Tag: nt.tag}, ok, len(ref)})
		}

		err := runtime.Run(runtime.Options{Ranks: senders + 1, Mode: exec.Sim}, func(p *runtime.Proc) {
			win := rma.Allocate(p, 8)
			if p.Rank() == 0 {
				// Senders deliver in global order: coordinate via barriers.
				for _, nt := range notifs {
					p.Barrier() // sender's turn
					_ = nt
					p.Barrier() // sent + flushed
				}
				for _, q := range queries {
					req := NotifyInit(win, q.source, q.tag, q.count)
					req.Start()
					r := result{ok: req.Test()}
					if r.ok {
						r.st = req.Status()
					}
					req.Free()
					r.depth = MatcherStats(win).Depth
					gotResults = append(gotResults, r)
				}
			} else {
				for _, nt := range notifs {
					p.Barrier()
					if nt.src == p.Rank() {
						PutNotify(win, 0, 0, nil, nt.tag)
						win.Flush(0)
					}
					p.Barrier()
				}
			}
		})
		if err != nil {
			t.Log(err)
			return false
		}
		if len(gotResults) != len(wantResults) {
			return false
		}
		for i := range gotResults {
			if gotResults[i].ok != wantResults[i].ok || gotResults[i].depth != wantResults[i].depth {
				return false
			}
			if gotResults[i].ok && gotResults[i].st != wantResults[i].st {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestUQDepthDiagnostic(t *testing.T) {
	err := runtime.Run(runtime.Options{Ranks: 2, Mode: exec.Sim}, func(p *runtime.Proc) {
		win := rma.Allocate(p, 8)
		if p.Rank() == 0 {
			for i := 0; i < 4; i++ {
				PutNotify(win, 1, 0, nil, 10) // none match tag 5
			}
			win.Flush(1)
			PutNotify(win, 1, 0, nil, 5)
			win.Flush(1)
		} else {
			req := NotifyInit(win, 0, 5, 1)
			req.Start()
			req.Wait()
			if d := PendingNotifications(win); d != 4 {
				t.Errorf("UQ depth = %d, want 4", d)
			}
			req.Free()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWaitChargesModeledOverheads(t *testing.T) {
	// NotifyInit/Start/Free charge the paper's constants in virtual time.
	w := runtime.NewWorld(runtime.Options{Ranks: 1, Mode: exec.Sim})
	m := w.Options().Model
	err := w.Run(func(p *runtime.Proc) {
		win := rma.Allocate(p, 8)
		t0 := p.Now()
		req := NotifyInit(win, AnySource, AnyTag, 1)
		if d := p.Now().Sub(t0); d != m.TInit {
			t.Errorf("NotifyInit cost %v, want %v", d, m.TInit)
		}
		t0 = p.Now()
		req.Start()
		if d := p.Now().Sub(t0); d != m.TStart {
			t.Errorf("Start cost %v, want %v", d, m.TStart)
		}
		t0 = p.Now()
		req.Free()
		if d := p.Now().Sub(t0); d != m.TFree {
			t.Errorf("Free cost %v, want %v", d, m.TFree)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = simtime.Microsecond
}
