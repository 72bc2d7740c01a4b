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
// Self of an Options.Ranks-rank job, and tears the mesh down. A final
// barrier after body quiesces all ranks before teardown, so no rank closes
// its sockets while peers still have traffic in flight. On a clean run the
// teardown is a Bye handshake; after an error the sockets are closed
// abruptly, which surviving peers report as ErrPeerFailed — exactly the
// semantics of a crashed rank.
func RunDistributed(d DistOptions, opts Options, body func(p *Proc)) error {
	w, mesh, err := newDistWorld(d, opts)
	if err != nil {
		return err
	}
	if d.OnBootstrap != nil {
		d.OnBootstrap(mesh.Gen(), mesh.Rejoined())
	}
	runErr := w.Run(func(p *Proc) {
		body(p)
		p.Barrier() // finalize: all ranks quiesce before any tears down
	})
	mesh.Close(runErr == nil)
	return runErr
}

// newDistWorld mirrors NewWorld for the distributed engine: same config
// plumbing, but the env is a DistEnv hosting one rank and the fabric is
// built over an established mesh.
func newDistWorld(d DistOptions, opts Options) (*World, *netfab.Mesh, error) {
	opts = opts.withDefaults()
	opts.Mode = exec.Dist
	if opts.Ranks <= 0 {
		return nil, nil, fmt.Errorf("runtime: invalid rank count %d", opts.Ranks)
	}
	if d.Self < 0 || d.Self >= opts.Ranks {
		return nil, nil, fmt.Errorf("runtime: rank %d outside job of %d", d.Self, opts.Ranks)
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
		return nil, nil, err
	}
	return newLinkWorld(opts, d.Self, mesh), mesh, nil
}

// newLinkWorld builds the one-rank World of a distributed job over an
// already-established link (TCP mesh or shared-memory mesh): fabric config
// from the job options, a DistEnv hosting rank self, and the fabric built
// by NewDistributed over the link. opts must already have defaults applied
// and Mode set.
func newLinkWorld(opts Options, self int, link fabric.Link) *World {
	if opts.UnreliableNetwork {
		opts.GetNotifyMode = fabric.GetNotifyDeferred
	}
	cfg := fabric.Config{
		Ranks:           opts.Ranks,
		RanksPerNode:    opts.RanksPerNode,
		Model:           *opts.Model,
		InlineThreshold: opts.InlineThreshold,
		ChargeOverheads: !opts.DisableOverheads,
		GetNotifyMode:   opts.GetNotifyMode,
		Trace:           opts.Trace,
		FaultPlan:       opts.FaultPlan,
		Reliability:     opts.Reliability,
	}
	env := exec.NewDistEnv(self, opts.Ranks)
	w := &World{opts: opts, env: env}
	cfg.FailureHook = w.announcePeerFailure
	w.fab = fabric.NewDistributed(env, cfg, link)
	return w
}

// RunLocalCluster runs an Options.Ranks-rank distributed job inside this
// process: every rank is a goroutine with its own mesh endpoint, fabric,
// and World, rendezvousing over a kernel-assigned localhost port. The
// result has one entry per rank, in rank order.
func RunLocalCluster(opts Options, body func(p *Proc)) []error {
	n := opts.withDefaults().Ranks
	if n <= 0 {
		return []error{fmt.Errorf("runtime: invalid rank count %d", n)}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		errs := make([]error, n)
		for i := range errs {
			errs[i] = fmt.Errorf("runtime: cluster listen: %w", err)
		}
		return errs
	}
	root := ln.Addr().String()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := DistOptions{Self: r, Root: root}
			if r == 0 {
				d.RootListener = ln
			}
			errs[r] = RunDistributed(d, opts, body)
		}()
	}
	wg.Wait()
	return errs
}
