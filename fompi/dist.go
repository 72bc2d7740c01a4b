package fompi

// The distributed face of the API: transport selection, per-process
// placement (DistConfig), the NA_* environment contract with cmd/nalaunch,
// and the in-process loopback cluster used by tests and benchmarks.

import (
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/runtime"
	"repro/internal/shmfab"
)

// Transport selects the engine a job runs on.
type Transport int

const (
	// TransportSim is the deterministic virtual-time simulator (default).
	TransportSim Transport = iota
	// TransportReal is the single-process wall-clock engine: all ranks are
	// goroutines, the fabric moves bytes through memory.
	TransportReal
	// TransportTCP is the distributed engine: this process hosts exactly
	// one rank and reaches the others over TCP sockets (see DistConfig and
	// cmd/nalaunch).
	TransportTCP
	// TransportShm is the distributed engine over shared memory: this
	// process hosts exactly one rank and reaches same-host peers through
	// mmap'd segment pairs (see ShmConfig and cmd/nalaunch, which selects
	// it automatically for all-local jobs).
	TransportShm
)

// String names the transport as accepted by NA_TRANSPORT and flag values.
func (t Transport) String() string {
	switch t {
	case TransportSim:
		return "sim"
	case TransportReal:
		return "real"
	case TransportTCP:
		return "tcp"
	case TransportShm:
		return "shm"
	}
	return fmt.Sprintf("Transport(%d)", int(t))
}

// ParseTransport converts a flag/environment value into a Transport.
func ParseTransport(s string) (Transport, error) {
	switch s {
	case "sim":
		return TransportSim, nil
	case "real":
		return TransportReal, nil
	case "tcp":
		return TransportTCP, nil
	case "shm":
		return TransportShm, nil
	}
	return 0, fmt.Errorf("fompi: unknown transport %q (want sim, real, tcp, or shm)", s)
}

// DistConfig locates this process inside a TransportTCP job.
type DistConfig struct {
	// Rank is this process's rank in [0, Options.Ranks).
	Rank int
	// Root is the rendezvous address rank 0 listens on and everyone else
	// dials ("host:port").
	Root string
	// Listener, when non-nil, is a pre-bound listener rank 0 adopts
	// instead of binding Root itself (the launcher passes one down so the
	// port is known before children start).
	Listener net.Listener
	// Timeout bounds the bootstrap rendezvous (default 10s).
	Timeout time.Duration
}

// ShmConfig locates this process inside a TransportShm job and names its
// segment bootstrap: inherited descriptors (FDs, the launcher path) or a
// directory of per-pair files (Dir).
type ShmConfig struct {
	// Rank is this process's rank in [0, Options.Ranks).
	Rank int
	// FDs maps each peer rank to the inherited pair-segment file, and
	// shmfab.ArenaKey(r) to rank r's window arena file. When non-nil it
	// must name every peer and every rank's arena. The files are consumed
	// (closed after mapping, or on error). The arenas are unmapped when
	// Run returns: window memory is not valid after it.
	FDs map[int]*os.File
	// Dir, used when FDs is nil, is a directory where the per-pair
	// segment files and the per-rank arena files live (created on first
	// open; see shmfab.PairName and shmfab.ArenaName).
	Dir string
	// HeartbeatInterval, HeartbeatTimeout, and StartupGrace override the
	// segment-mesh liveness defaults (zero keeps each default). Recovery
	// demos shorten them so a peer death is detected promptly.
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	StartupGrace      time.Duration
}

// Environment variables forming the contract between cmd/nalaunch and any
// program calling Run: when NA_TRANSPORT is tcp or shm, the program joins
// the launcher's job without code changes.
const (
	// EnvTransport selects the engine ("tcp" and "shm" are honored).
	EnvTransport = "NA_TRANSPORT"
	// EnvRank is this process's rank.
	EnvRank = "NA_RANK"
	// EnvNRanks is the job size; it must equal Options.Ranks.
	EnvNRanks = "NA_NRANKS"
	// EnvRoot is the rendezvous address (tcp only).
	EnvRoot = "NA_ROOT"
	// EnvRootFD, set only for rank 0, is the file descriptor of the
	// pre-bound root listener the launcher passed via ExtraFiles (tcp only).
	EnvRootFD = "NA_ROOT_FD"
	// EnvShmFDs lists this rank's inherited segment descriptors as
	// "peer=fd,peer=fd,..." — one mmap-able file per peer, passed via
	// ExtraFiles — followed by "arank=fd" for each rank's window arena
	// (shm only).
	EnvShmFDs = "NA_SHM_FDS"
	// EnvShmDir names a directory of per-pair segment files
	// (shmfab.PairName) as the fd-less fallback bootstrap (shm only;
	// EnvShmFDs wins when both are set).
	EnvShmDir = "NA_SHM_DIR"
	// EnvShmHeartbeat and EnvShmHeartbeatTimeout override the segment-mesh
	// liveness cadence as Go durations (shm only; nalaunch -hb-interval and
	// -hb-timeout set them so recovery demos detect deaths promptly).
	EnvShmHeartbeat        = "NA_SHM_HEARTBEAT"
	EnvShmHeartbeatTimeout = "NA_SHM_HEARTBEAT_TIMEOUT"
)

// detectEnv folds the launcher environment into the options. Explicit
// settings win: a program that already chose a transport or a DistConfig is
// left alone.
func (o Options) detectEnv() (Options, error) {
	if o.Transport != TransportSim || o.Dist != nil || o.Shm != nil || o.Real {
		return o, nil
	}
	tr := os.Getenv(EnvTransport)
	if tr != "tcp" && tr != "shm" {
		return o, nil
	}
	rank, err := strconv.Atoi(os.Getenv(EnvRank))
	if err != nil {
		return o, fmt.Errorf("fompi: bad %s=%q: %w", EnvRank, os.Getenv(EnvRank), err)
	}
	n, err := strconv.Atoi(os.Getenv(EnvNRanks))
	if err != nil {
		return o, fmt.Errorf("fompi: bad %s=%q: %w", EnvNRanks, os.Getenv(EnvNRanks), err)
	}
	if n != o.Ranks {
		return o, fmt.Errorf("fompi: launcher started %d ranks but the program asked for Options.Ranks=%d", n, o.Ranks)
	}
	if tr == "shm" {
		s := &ShmConfig{Rank: rank, Dir: os.Getenv(EnvShmDir)}
		if fdsStr := os.Getenv(EnvShmFDs); fdsStr != "" {
			s.FDs, err = parseShmFDs(fdsStr)
			if err != nil {
				return o, err
			}
		} else if s.Dir == "" {
			return o, fmt.Errorf("fompi: %s=shm needs %s or %s", EnvTransport, EnvShmFDs, EnvShmDir)
		}
		for _, hb := range []struct {
			env string
			dst *time.Duration
		}{
			{EnvShmHeartbeat, &s.HeartbeatInterval},
			{EnvShmHeartbeatTimeout, &s.HeartbeatTimeout},
		} {
			if v := os.Getenv(hb.env); v != "" {
				d, err := time.ParseDuration(v)
				if err != nil {
					return o, fmt.Errorf("fompi: bad %s=%q: %w", hb.env, v, err)
				}
				*hb.dst = d
			}
		}
		o.Transport = TransportShm
		o.Shm = s
		return o, nil
	}
	d := &DistConfig{Rank: rank, Root: os.Getenv(EnvRoot)}
	if fdStr := os.Getenv(EnvRootFD); fdStr != "" && rank == 0 {
		fd, err := strconv.Atoi(fdStr)
		if err != nil {
			return o, fmt.Errorf("fompi: bad %s=%q: %w", EnvRootFD, fdStr, err)
		}
		f := os.NewFile(uintptr(fd), "na-root-listener")
		ln, err := net.FileListener(f)
		f.Close() // FileListener dups the fd; the original is ours to close
		if err != nil {
			return o, fmt.Errorf("fompi: adopting root listener fd %d: %w", fd, err)
		}
		d.Listener = ln
	}
	o.Transport = TransportTCP
	o.Dist = d
	return o, nil
}

// parseShmFDs decodes the NA_SHM_FDS value ("peer=fd,...,arank=fd,...")
// into open files for the inherited descriptors: a bare rank names the
// pair segment shared with that peer, an "a"-prefixed one that rank's
// window arena (keyed shmfab.ArenaKey(rank)).
func parseShmFDs(s string) (map[int]*os.File, error) {
	fds := make(map[int]*os.File)
	for _, part := range strings.Split(s, ",") {
		name, fd, ok := strings.Cut(part, "=")
		rank, arena := strings.CutPrefix(name, "a")
		r, err1 := strconv.Atoi(rank)
		d, err2 := strconv.Atoi(fd)
		if !ok || err1 != nil || err2 != nil || r < 0 || d < 3 {
			return nil, fmt.Errorf("fompi: bad %s entry %q", EnvShmFDs, part)
		}
		key, what := r, "na-segment-"
		if arena {
			key, what = shmfab.ArenaKey(r), "na-arena-"
		}
		if _, dup := fds[key]; dup {
			return nil, fmt.Errorf("fompi: duplicate entry %q in %s", name, EnvShmFDs)
		}
		fds[key] = os.NewFile(uintptr(d), what+rank)
	}
	return fds, nil
}

// runDist hosts one rank of a TransportTCP job in this process.
func runDist(opts Options, body func(p *Proc)) error {
	d := opts.Dist
	if d == nil {
		return fmt.Errorf("fompi: TransportTCP needs Options.Dist (or run under nalaunch, which sets the NA_* environment)")
	}
	return runtime.RunDistributed(runtime.DistOptions{
		Self:         d.Rank,
		Root:         d.Root,
		RootListener: d.Listener,
		Timeout:      d.Timeout,
	}, rtOptions(opts), func(p *runtime.Proc) {
		body(&Proc{p: p})
	})
}

// runShm hosts one rank of a TransportShm job in this process.
func runShm(opts Options, body func(p *Proc)) error {
	s := opts.Shm
	if s == nil {
		return fmt.Errorf("fompi: TransportShm needs Options.Shm (or run under nalaunch, which sets the NA_* environment)")
	}
	var (
		segs   []*shmfab.Segment
		arenas []*shmfab.Arena
		err    error
	)
	if s.FDs != nil {
		segs, arenas, err = shmfab.MapFDs(s.FDs, s.Rank, opts.Ranks)
	} else {
		segs, arenas, err = shmfab.OpenDir(s.Dir, s.Rank, opts.Ranks)
	}
	if err != nil {
		return err
	}
	return runtime.RunShm(runtime.ShmOptions{
		Self:              s.Rank,
		Segments:          segs,
		Arenas:            arenas,
		HeartbeatInterval: s.HeartbeatInterval,
		HeartbeatTimeout:  s.HeartbeatTimeout,
		StartupGrace:      s.StartupGrace,
	}, rtOptions(opts), func(p *runtime.Proc) {
		body(&Proc{p: p})
	})
}

// RunLocalCluster runs an Options.Ranks-rank TransportTCP job inside this
// process: every rank is a goroutine with its own mesh endpoint and fabric,
// exchanging frames over real localhost sockets. It is the loopback mode of
// the distributed engine — the full wire path without multi-process
// orchestration — and returns one error slot per rank, in rank order.
func RunLocalCluster(opts Options, body func(p *Proc)) []error {
	return runtime.RunLocalCluster(rtOptions(opts), func(p *runtime.Proc) {
		body(&Proc{p: p})
	})
}

// RunLocalShmCluster is RunLocalCluster's shared-memory twin: every rank
// is a goroutine with its own mesh endpoint and fabric, exchanging frames
// through heap-backed segment pairs under the full ring discipline — the
// cross-process protocol in one process, where tests and the race detector
// can see it. Returns one error slot per rank, in rank order.
func RunLocalShmCluster(opts Options, body func(p *Proc)) []error {
	return runtime.RunLocalShmCluster(rtOptions(opts), func(p *runtime.Proc) {
		body(&Proc{p: p})
	})
}
