package fompi

// Fault tolerance: replicated windows, coordinated checkpoints, and
// resilient runs that survive rank deaths by re-forming the job as a new
// world generation (TransportTCP) or by proving the dead rank's
// checkpointed state intact in survivor replicas (TransportShm). The
// mechanics live in internal/ft; this file is the public surface.

import (
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/ft"
	"repro/internal/runtime"
)

// FTStats counts one rank's recovery-plane activity (mirrored writes,
// checkpoints, restores, generations joined).
type FTStats = ft.Stats

// ErrInjectedDeath is what a run error unwraps to after FT.Die felled the
// rank: the deterministic stand-in for a killed process.
var ErrInjectedDeath = ft.ErrInjectedDeath

// ErrDegraded reports a peer death on an engine that cannot respawn ranks:
// the survivors verified their replicas still hold the dead rank's
// checkpointed bytes, but the job could not re-form. Callers that only
// need survivability-of-data treat it as success.
var ErrDegraded = ft.ErrDegraded

// ErrUnrecoverable reports a loss the buddy-replica ring cannot repair
// (two adjacent ranks died together, or survivors disagree on the
// checkpoint epoch).
var ErrUnrecoverable = ft.ErrUnrecoverable

// EnvRejoin marks a process respawned by the launcher to replace a dead
// rank: when set to "1", RunResilient joins the job with a rejoin
// handshake and has its window state rebuilt from peer replicas.
const EnvRejoin = "NA_REJOIN"

// ftKey hangs the per-process recovery manager off the rank handle.
type ftKey struct{}

// FT is the per-rank handle to the recovery plane.
type FT struct {
	p *Proc
	m *ft.Manager
}

// FT returns this rank's recovery handle, creating it on first use. The
// first call is collective (it allocates the recovery control window on
// every rank), as is WinAllocateReplicated; under RunResilient the handle
// already exists when the body starts. Checkpoint and Restore are
// collective; the accessors are local.
func (p *Proc) FT() *FT {
	v := p.p.Attach(ftKey{}, func() any { return ft.NewManager() })
	m := v.(*ft.Manager)
	if m.Proc() != p.p {
		m.Begin(p.p)
	}
	return &FT{p: p, m: m}
}

// Epoch returns the number of checkpoints this process holds. Resilient
// bodies key replay-safe initialization off it: run the write phase only
// when Epoch() == 0.
func (f *FT) Epoch() int { return f.m.Epoch() }

// Gen returns the world generation this process is running in (0 for the
// first; each recovery re-bootstrap increments it).
func (f *FT) Gen() int { return f.m.Gen() }

// Fresh reports whether this process joined with no local state and has
// not yet been rebuilt by Restore.
func (f *FT) Fresh() bool { return f.m.Fresh() }

// Stats returns the recovery counters.
func (f *FT) Stats() FTStats { return f.m.Stats() }

// Checkpoint coordinates an in-memory checkpoint of every replicated
// window: quiesce, prove each buddy mirror byte-equal to its primary by a
// digest all-gather, snapshot locally, advance the epoch. Collective.
func (f *FT) Checkpoint() error { return f.m.Checkpoint() }

// Restore brings every rank back to the latest consistent checkpoint
// after a generation restart, replaying respawned ranks' windows out of
// their neighbors' replicas. Collective; call it after allocating the
// same replicated windows the previous generation held. A first
// generation is a no-op.
func (f *FT) Restore() error { return f.m.Restore() }

// VerifyMirror proves, locally, that this rank's mirror snapshot still
// matches the digest its predecessor published at the last checkpoint.
func (f *FT) VerifyMirror() error { return f.m.VerifyMirror() }

// Die unwinds this rank with ErrInjectedDeath, closing its sockets
// abruptly so peers observe an ordinary rank death. Tests and the
// recovery benchmark use it to kill a rank at an exact program point.
// Never returns.
func (f *FT) Die() { f.m.Die() }

// DiedAt and DetectedAt expose the recovery timeline: when Die was called
// here, and when this rank first observed a peer failure.
func (f *FT) DiedAt() time.Time     { return f.m.DiedAt() }
func (f *FT) DetectedAt() time.Time { return f.m.DetectedAt() }

// RWin is a replicated RMA window: every write to a rank's primary copy
// is transparently forwarded to a buddy rank's mirror, so the window
// contents survive any single rank death between checkpoints.
type RWin struct {
	p *Proc
	w *ft.Win
}

// WinAllocateReplicated collectively creates a replicated window of size
// bytes on every rank. All ranks must call it in the same order, after
// (or interleaved with, consistently) their plain WinAllocate calls.
func (p *Proc) WinAllocateReplicated(size int) *RWin {
	return &RWin{p: p, w: p.FT().m.AllocateReplicated(size)}
}

// Free collectively releases the window pair (teardown only; see
// internal/ft: snapshots stop corresponding after a Free).
func (w *RWin) Free() { w.w.Free() }

// Size returns the window size in bytes.
func (w *RWin) Size() int { return w.w.Size() }

// Buffer returns the local primary window memory.
func (w *RWin) Buffer() []byte { return w.w.Buffer() }

// Primary returns the primary as a plain window for the read-side surface
// (IGet, NotifyInit, RegisterHandler): reads need no replication, and
// notifications the application defines ride the primary. Writing through
// the returned window bypasses replication — use the RWin write surface.
func (w *RWin) Primary() *Win { return &Win{p: w.p, w: w.w.Primary()} }

// Put writes data to target's primary at targetOff and forwards it to the
// buddy's mirror.
func (w *RWin) Put(target, targetOff int, data []byte) {
	w.w.Put(target, targetOff, data).Detach()
}

// PutNotify is Put plus an application notification at the target. The
// payload travels once; the notification follows it on the same pair, so
// it cannot match before the bytes are deposited.
func (w *RWin) PutNotify(target, targetOff int, data []byte, tag int) {
	w.w.PutNotify(target, targetOff, data, tag).Detach()
}

// CommitLocal stores data into the local primary and forwards it to the
// buddy's mirror. Safe from active-message handler context, so services
// can route their commit path through it.
func (w *RWin) CommitLocal(off int, data []byte) { w.w.CommitLocal(off, data) }

// ReadLocal reads len(dst) bytes at off from the local primary under the
// region read lock.
func (w *RWin) ReadLocal(off int, dst []byte) { w.w.ReadLocal(off, dst) }

// FlushAll completes all outstanding operations this rank issued.
func (w *RWin) FlushAll() { w.w.FlushAll() }

// ResilientOptions configures RunResilient beyond the base job options.
type ResilientOptions struct {
	// MaxGenerations caps how many world generations one process will
	// join before giving up (default 8). Each rank death consumes one.
	MaxGenerations int
}

// RunResilient is Run for jobs that must survive rank deaths. The body is
// (re-)executed from the top in every world generation; it uses
// p.FT().Epoch() to skip phases already checkpointed and p.FT().Restore()
// to rebuild state after allocating its replicated windows.
//
//   - TransportTCP: a rank death aborts the current generation on every
//     surviving process; all of them (plus the respawned rank, relaunched
//     by nalaunch -respawn or simulated in-process after FT.Die)
//     re-rendezvous through the same root listener as generation g+1 and
//     re-run the body. Survivor state (checkpoints, epoch) carries across
//     generations in the process.
//   - TransportShm: ranks cannot be respawned (the segment mesh is fixed
//     at launch), so a peer death ends the job; survivors verify their
//     replicas against the last checkpoint digest and return ErrDegraded
//     on success — data survived even though the job could not re-form.
//   - TransportSim / TransportReal: single-process engines have no
//     process to respawn; RunResilient runs the body once, providing the
//     replication and checkpoint surface without the restart loop.
func RunResilient(opts Options, ropts ResilientOptions, body func(p *Proc)) error {
	opts, err := opts.detectEnv()
	if err != nil {
		return err
	}
	maxGen := ropts.MaxGenerations
	if maxGen <= 0 {
		maxGen = 8
	}
	m := ft.NewManager()
	switch opts.Transport {
	case TransportTCP:
		if os.Getenv(EnvRejoin) == "1" {
			m.Reset() // respawned process: no state, rejoin handshake
		}
		return runResilientDist(opts, m, maxGen, body)
	case TransportShm:
		err := runShm(opts, resilientBody(m, body))
		if err != nil && errors.Is(err, ErrPeerFailed) {
			if verr := m.VerifyMirror(); verr != nil {
				return fmt.Errorf("%w; and replica verification failed: %v", ErrUnrecoverable, verr)
			}
			return fmt.Errorf("%w (after: %v)", ErrDegraded, err)
		}
		return err
	default:
		// Single-process engines host every rank in one process: each
		// rank gets its own manager, created lazily by p.FT().
		return Run(opts, body)
	}
}

// resilientBody binds the process's long-lived manager to each new
// generation's rank handle before running the application body.
func resilientBody(m *ft.Manager, body func(p *Proc)) func(p *Proc) {
	return func(p *Proc) {
		p.p.Attach(ftKey{}, func() any { return m })
		m.Begin(p.p)
		body(p)
	}
}

// runResilientDist is the TCP generation loop: run a generation; on an
// injected death become the respawned process (reset state, rejoin); on a
// peer failure continue as a survivor; on success or any other error,
// stop.
func runResilientDist(opts Options, m *ft.Manager, maxGen int, body func(p *Proc)) error {
	d := opts.Dist
	if d == nil {
		return fmt.Errorf("fompi: TransportTCP needs Options.Dist (or run under nalaunch, which sets the NA_* environment)")
	}
	var err error
	for gen := 0; gen < maxGen; gen++ {
		err = runtime.RunDistributed(runtime.DistOptions{
			Self:             d.Rank,
			Root:             d.Root,
			RootListener:     d.Listener,
			Timeout:          d.Timeout,
			KeepRootListener: d.Listener != nil,
			Gen:              gen,
			Rejoin:           m.Fresh(),
			OnBootstrap:      m.Bootstrap,
		}, rtOptions(opts), func(p *runtime.Proc) {
			fp := &Proc{p: p}
			p.Attach(ftKey{}, func() any { return m })
			m.Begin(p)
			body(fp)
		})
		switch {
		case err == nil:
			return nil
		case errors.Is(err, ft.ErrInjectedDeath):
			// This rank was the victim: model the respawned replacement
			// process in place — fresh state, rejoin handshake.
			m.Reset()
		case errors.Is(err, ErrPeerFailed):
			// Survivor: re-rendezvous as the next generation.
		default:
			return err
		}
	}
	return fmt.Errorf("fompi: gave up after %d world generations: %w", maxGen, err)
}

// RunLocalClusterResilient is RunLocalCluster for resilient jobs: n
// goroutines, each a complete distributed rank with its own recovery
// manager and generation loop, re-rendezvousing over a shared kept-open
// localhost listener after every injected death (the goroutine whose rank
// called FT.Die resets its manager and rejoins fresh, modeling the
// respawned process). The result has one entry per rank. Use FT.Die to
// fell ranks here — a FaultPlan crash would re-fire identically in every
// generation.
func RunLocalClusterResilient(opts Options, ropts ResilientOptions, body func(p *Proc)) []error {
	opts.Transport = TransportTCP
	maxGen := ropts.MaxGenerations
	if maxGen <= 0 {
		maxGen = 8
	}
	return runtime.LocalTCPRanks(opts.Ranks, func(d runtime.DistOptions) error {
		o := opts
		o.Dist = &DistConfig{Rank: d.Self, Root: d.Root, Listener: d.RootListener}
		return runResilientDist(o, ft.NewManager(), maxGen, body)
	})
}
