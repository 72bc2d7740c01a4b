package runtime

// Shared-memory jobs: like dist.go, one World per OS process hosting a
// single rank, but peers on the same host exchange frames through mapped
// segment pairs (internal/shmfab) instead of TCP sockets. RunShm is the
// per-process entry point (cmd/nalaunch creates the segments and passes
// them down as inherited fds or NA_SHM_DIR files); RunLocalShmCluster
// folds the same stack into one process over heap segments — n
// goroutines, each a complete rank with its own mesh endpoint and fabric,
// sharing the segment memory directly — so tests and the race detector
// exercise the full ring protocol without multi-process orchestration.

import (
	"fmt"
	"time"

	"repro/internal/shmfab"
)

// ShmOptions configures one process's membership in a shared-memory job.
type ShmOptions struct {
	// Self is this process's rank in [0, Options.Ranks).
	Self int
	// Segments is indexed by peer rank (nil at Self): Segments[q] is the
	// mapped pair segment shared with rank q (launcher fds, NA_SHM_DIR
	// files, or heap segments for in-process clusters).
	Segments []*shmfab.Segment
	// Arenas is indexed by rank: Arenas[r] is rank r's window arena
	// (launcher fds, NA_SHM_DIR files, or heap arenas for in-process
	// clusters). Every rank needs one.
	Arenas []*shmfab.Arena
	// HeartbeatInterval/HeartbeatTimeout/StartupGrace override the segment
	// mesh's liveness timings (zero keeps the shmfab defaults: 25ms bump,
	// 5s stall, 10s boot grace). Recovery tests shrink them so a killed or
	// hung peer is detected in milliseconds instead of seconds.
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	StartupGrace      time.Duration
}

// RunShm runs body as rank Self of an Options.Ranks-rank job over the
// shared-memory fabric and tears the mesh down, with RunDistributed's
// finalize barrier and close semantics (runRank); an abrupt close shows to
// surviving peers as a heartbeat stall. It takes Arenas over and unmaps
// them when it returns, as the mesh unmaps Segments when it closes, so no
// window's bytes may be used after it (heap arenas are left to the
// garbage collector).
func RunShm(s ShmOptions, opts Options, body func(p *Proc)) error {
	defer shmfab.UnmapArenas(s.Arenas)
	opts, err := linkOptions(opts, s.Self)
	if err != nil {
		return err
	}
	if len(s.Arenas) != opts.Ranks {
		return fmt.Errorf("runtime: %d window arenas for %d ranks", len(s.Arenas), opts.Ranks)
	}
	windows, err := shmfab.NewWindows(s.Self, s.Arenas)
	if err != nil {
		return err
	}
	mesh, err := shmfab.Attach(shmfab.Config{
		Self:              s.Self,
		N:                 opts.Ranks,
		Segments:          s.Segments,
		HeartbeatInterval: s.HeartbeatInterval,
		HeartbeatTimeout:  s.HeartbeatTimeout,
		StartupGrace:      s.StartupGrace,
	})
	if err != nil {
		return err
	}
	return runRank(opts, mesh, windows, body)
}

// RunLocalShmCluster runs an Options.Ranks-rank shared-memory job inside
// this process: one heap segment per rank pair, shared by both endpoint
// goroutines, and one heap window arena per rank, shared by all, each
// goroutine running a complete rank (mesh, fabric, World). The result has
// one entry per rank, in rank order. Because the segments and arenas are
// ordinary Go memory and publication uses sync/atomic, the race detector
// checks the full ring discipline here, and the notified-access contract
// of whatever runs on it: an origin's copy into a window is ordered
// before the target's reads only by the notification that publishes it.
func RunLocalShmCluster(opts Options, body func(p *Proc)) []error {
	n := opts.Ranks
	if n <= 0 {
		return []error{fmt.Errorf("runtime: invalid rank count %d", n)}
	}
	// pair[lo][hi] is the one segment both endpoints map.
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
		for q := 0; q < n; q++ {
			if q != r {
				segs[q] = pair[[2]int{min(r, q), max(r, q)}]
			}
		}
		return RunShm(ShmOptions{Self: r, Segments: segs, Arenas: arenas}, opts, body)
	})
}
