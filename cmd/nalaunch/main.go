// Command nalaunch runs an fompi program as a real distributed job: one OS
// process per rank, connected over shared memory (the default for
// all-local jobs) or TCP.
//
//	nalaunch -n 2 ./quickstart
//	nalaunch -n 4 -transport tcp -- ./app -iters 100
//
// Under -transport shm (what auto picks, since every child is local) the
// launcher creates one anonymous segment file per rank pair — memfd_create
// where available, an unlinked temp file otherwise — hands each child its
// pairs as inherited descriptors, and points the NA_* environment at them:
// the ranks exchange frames through mmap'd rings with zero socket traffic.
//
// Under -transport tcp the launcher binds the rendezvous listener itself,
// hands it to the rank-0 child as an inherited file descriptor (so the
// port is settled before any process starts — no bind race, no fixed
// port), and tells every child its place in the job through the NA_*
// environment (see package fompi). Either way an unmodified program
// calling fompi.Run joins the job. Child output is line-multiplexed onto
// the launcher's streams with a [rank] prefix.
//
// For failure demonstrations, -kill R[,R...] sends SIGKILL to each listed
// rank after -kill-after plus a per-victim random draw from [0,
// -kill-jitter), seeded by -seed so a schedule replays exactly. Without
// -respawn, survivors observe the deaths (abrupt connection loss over TCP,
// a stalled heartbeat over shm) as ErrPeerFailed and the demo exits 0.
// With -respawn (tcp only) the launcher relaunches each killed rank with
// NA_REJOIN=1: a program running under fompi.RunResilient re-forms the job
// as a new world generation, rebuilds the dead rank's windows from peer
// replicas, and runs to completion — the launcher then demands that every
// rank, respawned ones included, exits 0.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/shmfab"
)

func main() {
	var (
		n          = flag.Int("n", 2, "number of ranks (one OS process each)")
		transport  = flag.String("transport", "auto", "inter-rank transport: shm, tcp, or auto (all ranks are local, so auto means shm)")
		rootAddr   = flag.String("root", "127.0.0.1:0", "tcp rendezvous bind address (port 0: kernel-assigned)")
		kills      = flag.String("kill", "", "comma-separated ranks to SIGKILL mid-run (failure demo; empty: none)")
		killAfter  = flag.Duration("kill-after", time.Second, "base delay before each -kill fires")
		killJitter = flag.Duration("kill-jitter", 0, "max extra delay added per victim, drawn from -seed")
		seed       = flag.Int64("seed", 1, "seed for the -kill-jitter draws (schedules replay exactly)")
		respawn    = flag.Bool("respawn", false, "relaunch killed ranks with NA_REJOIN=1 so resilient programs re-form the job (tcp only)")
		hbInterval = flag.Duration("hb-interval", 0, "shm heartbeat interval override (0: library default)")
		hbTimeout  = flag.Duration("hb-timeout", 0, "shm heartbeat timeout override (0: library default)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: nalaunch [flags] program [args...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *n <= 0 {
		fmt.Fprintf(os.Stderr, "nalaunch: -n must be positive\n")
		os.Exit(2)
	}
	victims, err := parseKills(*kills, *n)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nalaunch: %v\n", err)
		os.Exit(2)
	}
	switch *transport {
	case "auto", "shm", "tcp":
	default:
		fmt.Fprintf(os.Stderr, "nalaunch: -transport %q (want shm, tcp, or auto)\n", *transport)
		os.Exit(2)
	}
	if *respawn && *transport != "tcp" {
		fmt.Fprintf(os.Stderr, "nalaunch: -respawn needs -transport tcp (a shm mesh is fixed at launch)\n")
		os.Exit(2)
	}
	os.Exit(launch(launchConfig{
		n: *n, transport: *transport, rootAddr: *rootAddr,
		victims: victims, killAfter: *killAfter, killJitter: *killJitter, seed: *seed,
		respawn: *respawn, hbInterval: *hbInterval, hbTimeout: *hbTimeout,
		args: flag.Args(),
	}))
}

// parseKills parses the -kill rank list ("1" or "0,2") against the job size.
func parseKills(spec string, n int) ([]int, error) {
	if spec == "" || spec == "-1" {
		return nil, nil
	}
	var victims []int
	seen := make(map[int]bool)
	for _, part := range strings.Split(spec, ",") {
		r, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("-kill %q: %v", spec, err)
		}
		if r < 0 || r >= n {
			return nil, fmt.Errorf("-kill %d outside job of %d ranks", r, n)
		}
		if seen[r] {
			return nil, fmt.Errorf("-kill %q lists rank %d twice", spec, r)
		}
		seen[r] = true
		victims = append(victims, r)
	}
	return victims, nil
}

type launchConfig struct {
	n          int
	transport  string
	rootAddr   string
	victims    []int
	killAfter  time.Duration
	killJitter time.Duration
	seed       int64
	respawn    bool
	hbInterval time.Duration
	hbTimeout  time.Duration
	args       []string
}

// rankEnv carries one child's transport bootstrap: environment additions
// and inherited files (ExtraFiles[i] becomes fd 3+i in the child).
type rankEnv struct {
	env   []string
	files []*os.File
}

// rankExit is one child process leaving: which rank, and how.
type rankExit struct {
	rank int
	err  error
}

func launch(cfg launchConfig) int {
	var (
		envs    []rankEnv
		cleanup func()
		err     error
	)
	if cfg.transport == "tcp" {
		envs, cleanup, err = tcpEnvs(cfg.n, cfg.rootAddr)
	} else {
		// auto: every child runs on this host, so shared memory it is.
		envs, cleanup, err = shmEnvs(cfg.n)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "nalaunch: %v\n", err)
		return 1
	}
	if cfg.hbInterval > 0 {
		for r := range envs {
			envs[r].env = append(envs[r].env, fmt.Sprintf("NA_SHM_HEARTBEAT=%s", cfg.hbInterval))
		}
	}
	if cfg.hbTimeout > 0 {
		for r := range envs {
			envs[r].env = append(envs[r].env, fmt.Sprintf("NA_SHM_HEARTBEAT_TIMEOUT=%s", cfg.hbTimeout))
		}
	}

	var outMu sync.Mutex // one child line at a time on each stream
	var pipes sync.WaitGroup
	start := func(r int, extraEnv ...string) (*exec.Cmd, error) {
		cmd := exec.Command(cfg.args[0], cfg.args[1:]...)
		cmd.Env = append(append(os.Environ(), envs[r].env...), extraEnv...)
		cmd.ExtraFiles = envs[r].files
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		stderr, err := cmd.StderrPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		pipes.Add(2)
		go prefixCopy(&pipes, &outMu, os.Stdout, stdout, r)
		go prefixCopy(&pipes, &outMu, os.Stderr, stderr, r)
		return cmd, nil
	}

	cmds := make([]*exec.Cmd, cfg.n)
	for r := 0; r < cfg.n; r++ {
		cmd, err := start(r)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nalaunch: starting rank %d (%s): %v\n", r, cfg.args[0], err)
			for _, c := range cmds[:r] {
				c.Process.Kill()
				c.Wait()
			}
			cleanup()
			return 1
		}
		cmds[r] = cmd
	}
	if cfg.respawn {
		// Respawned children must re-inherit the launcher's files; keep
		// them open until the job is over.
		defer cleanup()
	} else {
		cleanup() // children hold their inherited copies now
	}

	// The kill schedule: base delay plus a per-victim draw, in -kill list
	// order, from a seeded source — so a failing schedule replays exactly.
	rng := rand.New(rand.NewSource(cfg.seed))
	for _, v := range cfg.victims {
		delay := cfg.killAfter
		if cfg.killJitter > 0 {
			delay += time.Duration(rng.Int63n(int64(cfg.killJitter)))
		}
		go func(v int, delay time.Duration) {
			time.Sleep(delay)
			fmt.Fprintf(os.Stderr, "nalaunch: killing rank %d (after %s)\n", v, delay)
			cmds[v].Process.Kill()
		}(v, delay)
	}
	isVictim := make(map[int]bool)
	for _, v := range cfg.victims {
		isVictim[v] = true
	}

	// Supervise: collect exits; with -respawn, relaunch a killed victim
	// once (NA_REJOIN=1) unless some rank already finished cleanly —
	// a clean exit means the job is over and stragglers just drain.
	exits := make(chan rankExit, cfg.n)
	supervise := func(r int, cmd *exec.Cmd) {
		go func() { exits <- rankExit{r, cmd.Wait()} }()
	}
	for r, cmd := range cmds {
		supervise(r, cmd)
	}
	running := cfg.n
	jobDone := false
	respawned := make(map[int]bool)
	code := 0
	for running > 0 {
		ex := <-exits
		if ex.err == nil {
			jobDone = true
			running--
			continue
		}
		if cfg.respawn && isVictim[ex.rank] && !respawned[ex.rank] && !jobDone {
			respawned[ex.rank] = true
			fmt.Fprintf(os.Stderr, "nalaunch: respawning rank %d\n", ex.rank)
			cmd, err := start(ex.rank, "NA_REJOIN=1")
			if err != nil {
				fmt.Fprintf(os.Stderr, "nalaunch: respawning rank %d: %v\n", ex.rank, err)
				code = 1
				running--
				continue
			}
			supervise(ex.rank, cmd)
			continue
		}
		running--
		if cfg.respawn || !isVictim[ex.rank] {
			fmt.Fprintf(os.Stderr, "nalaunch: rank %d: %v\n", ex.rank, ex.err)
			if cfg.respawn || len(cfg.victims) == 0 {
				code = 1
			}
		}
	}
	pipes.Wait()
	if len(cfg.victims) > 0 && !cfg.respawn {
		// Failure demo: survivors are expected to exit with ErrPeerFailed;
		// statuses were printed above, the demo itself succeeded.
		return 0
	}
	return code
}

// tcpEnvs binds the rendezvous listener and builds each child's NA_*
// environment for the TCP transport.
func tcpEnvs(n int, rootAddr string) ([]rankEnv, func(), error) {
	ln, err := net.Listen("tcp", rootAddr)
	if err != nil {
		return nil, nil, fmt.Errorf("binding rendezvous %s: %w", rootAddr, err)
	}
	lnFile, err := ln.(*net.TCPListener).File()
	if err != nil {
		ln.Close()
		return nil, nil, fmt.Errorf("dup of rendezvous listener: %w", err)
	}
	addr := ln.Addr().String()
	envs := make([]rankEnv, n)
	for r := 0; r < n; r++ {
		envs[r].env = []string{
			"NA_TRANSPORT=tcp",
			fmt.Sprintf("NA_RANK=%d", r),
			fmt.Sprintf("NA_NRANKS=%d", n),
			"NA_ROOT=" + addr,
		}
		if r == 0 {
			// ExtraFiles[0] becomes fd 3 in the child.
			envs[r].files = []*os.File{lnFile}
			envs[r].env = append(envs[r].env, "NA_ROOT_FD=3")
		}
	}
	// The listener itself stays open for rank 0's accept loop; only the
	// launcher's dup is surrendered after the children inherit it.
	return envs, func() { lnFile.Close() }, nil
}

// shmEnvs creates one anonymous segment file per rank pair and one window
// arena file per rank, and builds each child's NA_* environment: the
// child's pair files and every rank's arena ride down as inherited
// descriptors, named in NA_SHM_FDS.
func shmEnvs(n int) ([]rankEnv, func(), error) {
	pairs := make(map[[2]int]*os.File)
	arenas := make([]*os.File, 0, n)
	cleanup := func() {
		for _, f := range pairs {
			f.Close()
		}
		for _, f := range arenas {
			f.Close()
		}
	}
	for r := 0; r < n; r++ {
		f, err := shmfab.CreateArenaFile("", r)
		if err != nil {
			cleanup()
			return nil, nil, fmt.Errorf("creating arena of rank %d: %w", r, err)
		}
		arenas = append(arenas, f)
	}
	for lo := 0; lo < n; lo++ {
		for hi := lo + 1; hi < n; hi++ {
			f, err := shmfab.CreateSegmentFile("", lo, hi)
			if err != nil {
				cleanup()
				return nil, nil, fmt.Errorf("creating segment (%d,%d): %w", lo, hi, err)
			}
			pairs[[2]int{lo, hi}] = f
		}
	}
	envs := make([]rankEnv, n)
	for r := 0; r < n; r++ {
		var spec []string
		for q := 0; q < n; q++ {
			if q == r {
				continue
			}
			lo, hi := r, q
			if lo > hi {
				lo, hi = hi, lo
			}
			// ExtraFiles[i] becomes fd 3+i in the child.
			spec = append(spec, fmt.Sprintf("%d=%d", q, 3+len(envs[r].files)))
			envs[r].files = append(envs[r].files, pairs[[2]int{lo, hi}])
		}
		for q, f := range arenas {
			spec = append(spec, fmt.Sprintf("a%d=%d", q, 3+len(envs[r].files)))
			envs[r].files = append(envs[r].files, f)
		}
		envs[r].env = []string{
			"NA_TRANSPORT=shm",
			fmt.Sprintf("NA_RANK=%d", r),
			fmt.Sprintf("NA_NRANKS=%d", n),
			"NA_SHM_FDS=" + strings.Join(spec, ","),
		}
	}
	return envs, cleanup, nil
}

// prefixCopy relays one child stream line-by-line with a [rank] prefix.
func prefixCopy(wg *sync.WaitGroup, mu *sync.Mutex, dst io.Writer, src io.Reader, rank int) {
	defer wg.Done()
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		mu.Lock()
		fmt.Fprintf(dst, "[%d] %s\n", rank, sc.Bytes())
		mu.Unlock()
	}
}
