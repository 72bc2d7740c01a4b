package ft

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/runtime"
)

// rankFill returns deterministic per-rank window contents.
func rankFill(rank, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(rank*37 + i*13 + 7)
	}
	return b
}

// collectErrs gathers one error slot per rank for assertions after the run.
type collectErrs struct {
	mu   sync.Mutex
	errs []error
}

func (c *collectErrs) set(rank int, err error) {
	c.mu.Lock()
	c.errs[rank] = err
	c.mu.Unlock()
}

// TestReplicateAndCheckpoint drives the full mirror path under Sim: local
// commits chain directly, remote puts chain through the TagMirror handler,
// and the checkpoint proves every mirror byte-equal and advances the epoch.
func TestReplicateAndCheckpoint(t *testing.T) {
	replicateAndCheckpoint(t, func(n int, body func(p *runtime.Proc)) error {
		return runtime.Run(runtime.Options{Ranks: n, Mode: exec.Sim}, body)
	})
}

// TestReplicateAndCheckpointShm is the same run on the in-process shm
// cluster: windows sit in the window arena, remote puts and the mirror
// chains are origin-side copies, and under the race detector the
// handler's reads of a mirrored put are ordered only by its notification.
func TestReplicateAndCheckpointShm(t *testing.T) {
	replicateAndCheckpoint(t, func(n int, body func(p *runtime.Proc)) error {
		return errors.Join(runtime.RunLocalShmCluster(runtime.Options{Ranks: n}, body)...)
	})
}

func replicateAndCheckpoint(t *testing.T, run func(n int, body func(p *runtime.Proc)) error) {
	const n, size = 3, 256
	mgrs := make([]*Manager, n)
	for i := range mgrs {
		mgrs[i] = NewManager()
	}
	ce := &collectErrs{errs: make([]error, n)}
	err := run(n, func(p *runtime.Proc) {
		m := mgrs[p.Rank()]
		m.Begin(p)
		w := m.AllocateReplicated(size)

		// Local half: every rank commits its own fill into [0, size/2).
		fill := rankFill(p.Rank(), size/2)
		w.CommitLocal(0, fill)
		// Remote half: every rank puts a fill into its successor's
		// [size/2, size) — exercising the handler-forwarded path.
		w.Put((p.Rank()+1)%n, size/2, rankFill(p.Rank()+100, size/2))
		w.FlushAll()
		p.Barrier()

		ce.set(p.Rank(), m.Checkpoint())
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for r, cerr := range ce.errs {
		if cerr != nil {
			t.Fatalf("rank %d checkpoint: %v", r, cerr)
		}
	}
	for r, m := range mgrs {
		if got := m.Epoch(); got != 1 {
			t.Errorf("rank %d epoch = %d, want 1", r, got)
		}
		st := m.Stats()
		if st.Mirrored == 0 || st.Checkpoints != 1 {
			t.Errorf("rank %d stats = %+v, want mirrored > 0 and 1 checkpoint", r, st)
		}
		// Each rank's mirror snapshot must equal its predecessor's primary
		// snapshot, byte for byte.
		pred := mgrs[(r-1+n)%n]
		if !bytes.Equal(m.snaps[0].mir, pred.snaps[0].prim) {
			t.Errorf("rank %d mirror snapshot != rank %d primary snapshot", r, (r-1+n)%n)
		}
		if err := m.VerifyMirror(); err != nil {
			t.Errorf("rank %d VerifyMirror: %v", r, err)
		}
	}
}

// TestPlantedSkipMirrorCaught arms the planted defect — one mirror chain
// silently dropped — and requires the next checkpoint to catch the
// divergence on every rank (the verdict all-gather makes failure
// collective).
func TestPlantedSkipMirrorCaught(t *testing.T) {
	const n, size = 3, 128
	mgrs := make([]*Manager, n)
	for i := range mgrs {
		mgrs[i] = NewManager()
	}
	ce := &collectErrs{errs: make([]error, n)}
	err := runtime.Run(runtime.Options{Ranks: n, Mode: exec.Sim}, func(p *runtime.Proc) {
		m := mgrs[p.Rank()]
		m.Begin(p)
		w := m.AllocateReplicated(size)
		if p.Rank() == 0 {
			m.SetPlantSkipMirrorNth(2)
		}
		w.CommitLocal(0, rankFill(p.Rank(), size/2))
		w.CommitLocal(size/2, rankFill(p.Rank()+1, size/2))
		w.FlushAll()
		p.Barrier()
		ce.set(p.Rank(), m.Checkpoint())
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for r, cerr := range ce.errs {
		if cerr == nil {
			t.Fatalf("rank %d checkpoint passed despite planted skipped mirror", r)
		} else if !strings.Contains(cerr.Error(), "diverged") {
			t.Fatalf("rank %d unexpected checkpoint error: %v", r, cerr)
		}
	}
	for r, m := range mgrs {
		if got := m.Epoch(); got != 0 {
			t.Errorf("rank %d epoch advanced to %d despite divergence", r, got)
		}
	}
}

// TestRestoreAfterDeath models the full recovery arc with two sequential
// Sim generations sharing managers: generation 0 writes and checkpoints;
// rank 1 is then reset (the respawned process); generation 1 restores and
// must see rank 1's primary rebuilt byte-identical from rank 2's mirror.
func TestRestoreAfterDeath(t *testing.T) {
	const n, size = 3, 512
	mgrs := make([]*Manager, n)
	for i := range mgrs {
		mgrs[i] = NewManager()
	}
	gen0 := func(p *runtime.Proc) {
		m := mgrs[p.Rank()]
		m.Begin(p)
		w := m.AllocateReplicated(size)
		w.CommitLocal(0, rankFill(p.Rank(), size))
		w.FlushAll()
		p.Barrier()
		if err := m.Checkpoint(); err != nil {
			panic(fmt.Errorf("rank %d checkpoint: %w", p.Rank(), err))
		}
	}
	if err := runtime.Run(runtime.Options{Ranks: n, Mode: exec.Sim}, gen0); err != nil {
		t.Fatalf("generation 0: %v", err)
	}

	// Rank 1 "dies": its replacement process starts with nothing.
	mgrs[1].Reset()
	if !mgrs[1].Fresh() || mgrs[1].Epoch() != 0 {
		t.Fatalf("reset manager not fresh/zeroed")
	}

	restored := make([][]byte, n)
	ce := &collectErrs{errs: make([]error, n)}
	gen1 := func(p *runtime.Proc) {
		m := mgrs[p.Rank()]
		m.Begin(p)
		w := m.AllocateReplicated(size)
		ce.set(p.Rank(), m.Restore())
		buf := make([]byte, size)
		w.ReadLocal(0, buf)
		restored[p.Rank()] = buf
	}
	if err := runtime.Run(runtime.Options{Ranks: n, Mode: exec.Sim}, gen1); err != nil {
		t.Fatalf("generation 1: %v", err)
	}
	for r, cerr := range ce.errs {
		if cerr != nil {
			t.Fatalf("rank %d restore: %v", r, cerr)
		}
	}
	for r := 0; r < n; r++ {
		if !bytes.Equal(restored[r], rankFill(r, size)) {
			t.Errorf("rank %d primary not restored to checkpoint contents", r)
		}
		if got := mgrs[r].Epoch(); got != 1 {
			t.Errorf("rank %d epoch = %d, want 1 after restore", r, got)
		}
	}
	if mgrs[1].Stats().Restores != 1 {
		t.Errorf("rank 1 Restores = %d, want 1", mgrs[1].Stats().Restores)
	}
	if mgrs[1].Fresh() {
		t.Errorf("rank 1 still fresh after restore")
	}
	// Mirrors must be whole again too: another death is now survivable.
	for r, m := range mgrs {
		if err := m.VerifyMirror(); err != nil {
			t.Errorf("rank %d VerifyMirror after restore: %v", r, err)
		}
	}
}

// TestRestoreAdjacentLossUnrecoverable: a primary and its only copy dying
// together must be reported, not silently zeroed.
func TestRestoreAdjacentLossUnrecoverable(t *testing.T) {
	const n, size = 4, 64
	mgrs := make([]*Manager, n)
	for i := range mgrs {
		mgrs[i] = NewManager()
	}
	gen0 := func(p *runtime.Proc) {
		m := mgrs[p.Rank()]
		m.Begin(p)
		w := m.AllocateReplicated(size)
		w.CommitLocal(0, rankFill(p.Rank(), size))
		w.FlushAll()
		p.Barrier()
		if err := m.Checkpoint(); err != nil {
			panic(err)
		}
	}
	if err := runtime.Run(runtime.Options{Ranks: n, Mode: exec.Sim}, gen0); err != nil {
		t.Fatalf("generation 0: %v", err)
	}
	mgrs[1].Reset()
	mgrs[2].Reset()
	ce := &collectErrs{errs: make([]error, n)}
	gen1 := func(p *runtime.Proc) {
		m := mgrs[p.Rank()]
		m.Begin(p)
		m.AllocateReplicated(size)
		ce.set(p.Rank(), m.Restore())
	}
	if err := runtime.Run(runtime.Options{Ranks: n, Mode: exec.Sim}, gen1); err != nil {
		t.Fatalf("generation 1: %v", err)
	}
	for r, cerr := range ce.errs {
		if cerr == nil {
			t.Fatalf("rank %d restore succeeded despite adjacent loss", r)
		}
	}
}

// TestVerifyMirrorDetectsCorruption: flipping one snapshot byte must fail
// the local proof.
func TestVerifyMirrorDetectsCorruption(t *testing.T) {
	const n, size = 2, 64
	mgrs := make([]*Manager, n)
	for i := range mgrs {
		mgrs[i] = NewManager()
	}
	body := func(p *runtime.Proc) {
		m := mgrs[p.Rank()]
		m.Begin(p)
		w := m.AllocateReplicated(size)
		w.CommitLocal(0, rankFill(p.Rank(), size))
		w.FlushAll()
		p.Barrier()
		if err := m.Checkpoint(); err != nil {
			panic(err)
		}
	}
	if err := runtime.Run(runtime.Options{Ranks: n, Mode: exec.Sim}, body); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := mgrs[0].VerifyMirror(); err != nil {
		t.Fatalf("pristine VerifyMirror: %v", err)
	}
	mgrs[0].snaps[0].mir[7] ^= 1
	if err := mgrs[0].VerifyMirror(); err == nil {
		t.Fatalf("VerifyMirror missed a corrupted snapshot byte")
	}
}
