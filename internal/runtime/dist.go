package runtime

// Distributed jobs: one World per OS process, each hosting a single rank,
// connected by a netfab TCP mesh. RunDistributed is the per-process entry
// point (cmd/nalaunch spawns one process per rank, each calling it);
// RunLocalCluster folds the same stack into one process — n goroutines,
// each a complete distributed rank with its own mesh endpoint and fabric,
// talking over real localhost sockets — so tests exercise the full wire
// path without multi-process orchestration.

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/netfab"
)

// DistOptions configures one process's membership in a distributed job.
// Job-wide options (rank count, thresholds, fault plan) stay in Options
// and must be identical on every rank.
type DistOptions struct {
	// Self is this process's rank in [0, Options.Ranks).
	Self int
	// Root is the rendezvous address rank 0 listens on and everyone else
	// dials ("host:port"). Ignored by rank 0 when RootListener is set.
	Root string
	// RootListener, when non-nil, is a pre-bound listener rank 0 adopts
	// (the launcher binds it before spawning children so the port is known).
	RootListener net.Listener
	// Timeout bounds the whole rendezvous (default 10s).
	Timeout time.Duration
	// KeepRootListener leaves RootListener open after bootstrap so a later
	// world generation can rendezvous through the same point (recovery
	// re-bootstrap after a rank death). Rank 0 with RootListener only.
	KeepRootListener bool
	// Gen is the world generation being formed (0 for the first). The root
	// stamps it on the roster; peers adopt the root's value.
	Gen int
	// Rejoin marks this process as a respawned rank re-entering the job;
	// its rendezvous hello uses the Rejoin wire kind so the root records
	// the admission.
	Rejoin bool
	// OnBootstrap, when non-nil, runs after the mesh rendezvous succeeds
	// and before body starts, reporting the generation the root stamped on
	// the roster and which ranks joined it with a Rejoin hello. Recovery
	// runtimes use it to learn whether this generation admits respawned
	// ranks that need their state rebuilt.
	OnBootstrap func(gen int, rejoined []int)
}

// RunDistributed bootstraps this process into the mesh, runs body as rank
// Self of an Options.Ranks-rank job, and tears the mesh down (see runRank
// for the finalize barrier and close semantics).
func RunDistributed(d DistOptions, opts Options, body func(p *Proc)) error {
	opts, err := linkOptions(opts, d.Self)
	if err != nil {
		return err
	}
	mesh, err := netfab.Bootstrap(netfab.Config{
		Self:             d.Self,
		N:                opts.Ranks,
		RootAddr:         d.Root,
		RootListener:     d.RootListener,
		DialTimeout:      d.Timeout,
		KeepRootListener: d.KeepRootListener,
		Gen:              d.Gen,
		Rejoin:           d.Rejoin,
	})
	if err != nil {
		return err
	}
	if d.OnBootstrap != nil {
		d.OnBootstrap(mesh.Gen(), mesh.Rejoined())
	}
	return runRank(opts, mesh, nil, body)
}

// linkOptions prepares job options for a one-rank-per-process engine:
// defaults applied, Mode forced to Dist, rank count and self validated.
func linkOptions(opts Options, self int) (Options, error) {
	opts = opts.withDefaults()
	opts.Mode = exec.Dist
	if opts.Ranks <= 0 {
		return opts, fmt.Errorf("runtime: invalid rank count %d", opts.Ranks)
	}
	if self < 0 || self >= opts.Ranks {
		return opts, fmt.Errorf("runtime: rank %d outside job of %d", self, opts.Ranks)
	}
	return opts, nil
}

// rankMesh is an established cross-process mesh (netfab over TCP, shmfab
// over segment rings) as the rank runner uses it.
type rankMesh interface {
	fabric.Link
	exec.Progressor
	Close(graceful bool) error
	SuppressHeartbeat()
}

// runRank runs body as rank mesh.Self() of the job over an established
// mesh and tears the mesh down; opts come from linkOptions, arenas is the
// job's window memory on shm (nil on TCP). A final barrier
// after body quiesces all ranks before teardown, so no rank closes its
// links while peers still have traffic in flight. A clean run closes
// gracefully (a goodbye handshake); after an error the links are closed
// abruptly, which surviving peers report as ErrPeerFailed — exactly the
// semantics of a crashed rank.
func runRank(opts Options, mesh rankMesh, arenas fabric.WindowArenas, body func(p *Proc)) error {
	env := exec.NewDistEnv(mesh.Self(), opts.Ranks)
	w, cfg := newWorld(opts, env)
	w.fab = fabric.NewDistributed(env, cfg, mesh, arenas)
	// A rank blocked in a wait drives its own link before it parks — the
	// segment rings on shm, the streams on TCP — so a notification or ack
	// it waits for commits on its own goroutine instead of reaching it
	// through the poller and a gate wakeup; the poller steps aside
	// meanwhile (EXPERIMENTS.md, "Waiters drive the rings" and "TCP
	// waiters drive their own streams").
	env.SetProgress(mesh)
	// Mirror injected rank failure into the mesh's heartbeat: a rank the
	// fault plan crashes or hangs keeps its links open (and, for hang,
	// keeps consuming), so the only way survivors can notice is the beat
	// going quiet — exactly how a real frozen process looks.
	if inj := w.fab.Injector(); inj != nil {
		inj.SetDownHook(func(rank int, _ fault.RankMode) {
			if rank == mesh.Self() {
				mesh.SuppressHeartbeat()
			}
		})
	}
	runErr := w.Run(func(p *Proc) {
		body(p)
		p.Barrier() // finalize: all ranks quiesce before any tears down
	})
	mesh.Close(runErr == nil)
	return runErr
}

// fanOut runs rank(r) for every r in [0, n), each on its own goroutine,
// and returns the results in rank order: the body of every in-process
// cluster launcher.
func fanOut(n int, rank func(r int) error) []error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = rank(r)
		}()
	}
	wg.Wait()
	return errs
}

// LocalTCPRanks hosts an n-rank TCP job inside this process: it binds a
// kernel-assigned localhost rendezvous port and calls rank once per rank,
// each on its own goroutine, with that rank's placement (Self, Root and,
// for rank 0, the bound listener). The result has one entry per rank, in
// rank order.
func LocalTCPRanks(n int, rank func(d DistOptions) error) []error {
	if n <= 0 {
		return []error{fmt.Errorf("runtime: invalid rank count %d", n)}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fanOut(n, func(int) error { return fmt.Errorf("runtime: cluster listen: %w", err) })
	}
	defer ln.Close() // still open only if rank kept it across generations
	return fanOut(n, func(r int) error {
		d := DistOptions{Self: r, Root: ln.Addr().String()}
		if r == 0 {
			d.RootListener = ln
		}
		return rank(d)
	})
}

// RunLocalCluster runs an Options.Ranks-rank distributed job inside this
// process: every rank is a goroutine with its own mesh endpoint, fabric,
// and World, rendezvousing over a kernel-assigned localhost port. The
// result has one entry per rank, in rank order.
func RunLocalCluster(opts Options, body func(p *Proc)) []error {
	return LocalTCPRanks(opts.Ranks, func(d DistOptions) error {
		return RunDistributed(d, opts, body)
	})
}
