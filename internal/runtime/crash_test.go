package runtime

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/shmfab"
)

// TestCrashFanoutEveryEngine crashes rank 2 of 3 mid-run and requires the
// same ErrPeerFailed fan-out on all four engines: each survivor observes
// rank 2 (and only rank 2) as failed, its op to the dead rank fails with
// itself as the observer, its op to the other survivor succeeds, and the
// crashed rank's own blocked wait unwinds with the failure. On Sim and Real
// the fabric's liveness timer declares the failure after 5 s (virtual on
// Sim); on TCP and shm the survivors' heartbeat detectors convict the
// silent rank, after TCP's 5 s default and after shm's shortened test
// timings. The subtests run in parallel, so the test takes about 5 s.
func TestCrashFanoutEveryEngine(t *testing.T) {
	const (
		classNever = ClassUser + 7 // no rank ever posts it
		classDone  = ClassUser + 8 // survivor → survivor: observations recorded
		classHello = ClassUser + 9 // rank 2 → rank 1, never consumed
	)
	one := func(mode exec.Mode) func(Options, func(*Proc)) []error {
		return func(o Options, body func(*Proc)) []error {
			o.Mode = mode
			return []error{Run(o, body)}
		}
	}
	// RunLocalShmCluster with heartbeat timings short enough that the
	// crashed rank, which unwinds only once the survivors' beats stop, is
	// not the slowest subtest by 10 s.
	shm := func(o Options, body func(*Proc)) []error {
		n := o.Ranks
		pair := make(map[[2]int]*shmfab.Segment)
		for lo := 0; lo < n; lo++ {
			for hi := lo + 1; hi < n; hi++ {
				pair[[2]int{lo, hi}] = shmfab.NewHeapSegment(lo, hi)
			}
		}
		arenas := make([]*shmfab.Arena, n)
		for r := range arenas {
			arenas[r] = shmfab.NewHeapArena()
		}
		return fanOut(n, func(r int) error {
			segs := make([]*shmfab.Segment, n)
			for q := range segs {
				if q != r {
					segs[q] = pair[[2]int{min(r, q), max(r, q)}]
				}
			}
			return RunShm(ShmOptions{Self: r, Segments: segs, Arenas: arenas, HeartbeatInterval: 2 * time.Millisecond,
				HeartbeatTimeout: 250 * time.Millisecond, StartupGrace: time.Second}, o, body)
		})
	}
	engines := []struct {
		name string
		run  func(Options, func(*Proc)) []error
	}{
		{"sim", one(exec.Sim)},
		{"real", one(exec.Real)},
		{"tcp", RunLocalCluster},
		{"shm", shm},
	}
	want := []string{"rank 0 observed [2]", "rank 1 observed [2]", "rank 2 unwound"}
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			t.Parallel()
			var (
				mu  sync.Mutex
				got []string
			)
			record := func(format string, args ...any) {
				mu.Lock()
				got = append(got, fmt.Sprintf(format, args...))
				mu.Unlock()
			}
			// Rank 2's two admitted sends are a hello to rank 1 and its
			// barrier gather to rank 0; its next send takes it down. Having
			// spoken on both streams, it is judged by the heartbeat timeout,
			// not the longer grace a never-heard peer gets.
			plan := &fault.Plan{Ranks: []fault.RankFault{{Rank: 2, Mode: fault.Crash, AfterSends: 2}}}
			errs := e.run(Options{Ranks: 3, FaultPlan: plan}, func(p *Proc) {
				nic := p.NIC()
				reg := nic.Register(make([]byte, 8))
				if p.Rank() == 2 {
					nic.PostMsg(p.Proc, 1, classHello, fabric.MsgHdr{}, nil, false)
					// Usually the post after the barrier is the crash. But a
					// survivor's put can reach rank 2 first (rank 0
					// descheduled between its two releases): rank 2's ack of
					// it is then the crash, the release to rank 2 is dropped,
					// and rank 2 unwinds from the barrier instead.
					func() {
						defer func() {
							if err, ok := recover().(error); ok && errors.Is(err, fabric.ErrPeerFailed) {
								record("rank 2 unwound")
							}
						}()
						p.Barrier()
						nic.PostMsg(p.Proc, 0, classNever, fabric.MsgHdr{}, nil, false) // absorbed: the crash
						nic.WaitMsgClass(p.Proc, classNever)
					}()
					return
				}
				p.Barrier()
				other := 1 - p.Rank()
				live := nic.Put(p.Proc, other, reg.ID, 0, []byte{1}, fabric.Imm{})
				live.Await(p.Proc)
				if err := live.Err(); err != nil {
					t.Errorf("rank %d: op to live rank %d failed: %v", p.Rank(), other, err)
				}
				dead := nic.Put(p.Proc, 2, reg.ID, 0, []byte{2}, fabric.Imm{})
				dead.Await(p.Proc)
				var pf *fabric.PeerFailedError
				if err := dead.Err(); !errors.As(err, &pf) || pf.Observer != p.Rank() || pf.Rank != 2 {
					t.Errorf("rank %d: op to the dead rank finished with %v", p.Rank(), err)
				}
				var failed []int
				for r := 0; r < 3; r++ {
					if err := nic.PeerError(r); err != nil {
						if !errors.As(err, &pf) || pf.Observer != p.Rank() || pf.Rank != r {
							t.Errorf("rank %d: PeerError(%d) = %v", p.Rank(), r, err)
						}
						failed = append(failed, r)
					}
				}
				record("rank %d observed %v", p.Rank(), failed)
				// Neither survivor leaves before both recorded: a survivor's
				// finalize barrier fails on the dead rank and tears its links
				// down, which the other would observe. The one that leaves
				// second may never read the first one's done message (an
				// abrupt TCP close can reset the stream under it), but it
				// then sees that survivor fail, after its own record. With a
				// failure on record a wait on an empty queue panics, so poll.
				nic.PostMsg(p.Proc, other, classDone, fabric.MsgHdr{}, nil, false)
				for {
					if _, ok := nic.PollMsgClass(classDone); ok || nic.PeerError(other) != nil {
						break
					}
					p.Yield()
				}
			})
			for r, err := range errs {
				// The in-process engines end cleanly; on a link the
				// finalize barrier meets the dead rank.
				if err != nil && !errors.Is(err, fabric.ErrPeerFailed) {
					t.Errorf("rank %d run error: %v", r, err)
				}
			}
			sort.Strings(got)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("fan-out %q, want %q", got, want)
			}
		})
	}
}
