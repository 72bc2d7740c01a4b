// Package ft is the fault-tolerance layer for notified access: replicated
// windows, coordinated in-memory checkpoints, and state replay for
// respawned ranks. It composes entirely from the existing primitives —
// notified puts carry the replication traffic, active-message handlers
// mirror incoming writes to a buddy rank, chained notified puts move data
// from handler context, and the runtime barrier provides the collective
// quiesce points — so every engine that runs notified access runs the
// recovery protocol unchanged.
//
// The scheme is a buddy ring: rank r's replicated window contents are
// mirrored at buddy(r) = (r+1) mod N. Each rank therefore hosts two
// buffers per replicated window — its primary P (its own data) and its
// mirror M (a byte-for-byte copy of rank r-1's primary). Every write to a
// primary is forwarded to the buddy's mirror: remote writes arrive as
// notified puts tagged TagMirror whose handler chains the payload onward;
// local commits chain it directly. A coordinated checkpoint quiesces the
// job (fence, AM drain, barrier), proves each mirror byte-equal to its
// primary by an all-gather of SHA-256 digests, and snapshots both buffers
// locally. After a rank death the job re-forms as a new world generation;
// Restore replays the dead rank's primary out of its buddy's mirror (and
// its mirror out of its predecessor's primary), so a respawned process
// resumes from the last checkpoint with nothing lost but the uncheckpointed
// suffix.
//
// A Manager outlives world generations: it belongs to the OS process (or
// the cluster goroutine standing in for one), and its snapshots are the
// state that survives when a generation is torn down and re-bootstrapped.
package ft

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/rma"
	"repro/internal/runtime"
)

// Reserved notification tags. Replicated windows own the top of the tag
// space so application tags (kv uses 10/11, benchmarks use single digits)
// can never collide with the replication plane. Tags are window-scoped,
// but keeping these globally reserved makes traces unambiguous.
const (
	// TagMirror marks a notified put into a primary window that must be
	// forwarded to the buddy's mirror by the AM handler at the target.
	TagMirror = 240
	// TagApply marks the chained put that lands a mirrored payload in the
	// buddy's mirror window.
	TagApply = 241
	// tagDigest carries the checkpoint digest all-gather on the control
	// window.
	tagDigest = 242
	// tagPresence carries the generation-start presence exchange on the
	// control window.
	tagPresence = 243
	// tagRestore signals completion of one replay stream into a respawned
	// rank's windows.
	tagRestore = 244
	// tagVerdict carries the checkpoint pass/fail all-gather, so every
	// rank agrees whether the epoch advanced (no rank may return a
	// divergence error while peers block in a collective).
	tagVerdict = 245
)

// ErrInjectedDeath is the panic value Die raises: a deterministic stand-in
// for a killed process, used by tests and the recovery benchmark to fell a
// rank at an exact program point. The runtime converts the panic into a
// run error that errors.Is matches.
var ErrInjectedDeath = errors.New("ft: injected rank death")

// ErrDegraded reports that a peer died on an engine that cannot respawn
// ranks (shared memory): the survivors verified their replicas still carry
// the dead rank's checkpointed state, but the job cannot re-form. Callers
// that only need survivability-of-data treat it as success.
var ErrDegraded = errors.New("ft: peer failed; replicas verified but engine cannot respawn ranks")

// ErrUnrecoverable reports a loss the buddy ring cannot repair: two
// adjacent ranks died together (a primary and the only copy of it), or
// survivors disagree on the checkpoint epoch.
var ErrUnrecoverable = errors.New("ft: state unrecoverable")

// Stats counts recovery-plane activity on one rank, across generations.
type Stats struct {
	// Mirrored counts writes forwarded to the buddy (remote puts chained
	// by the TagMirror handler plus local commits chained directly).
	Mirrored uint64
	// Applied counts mirrored payloads landed in this rank's mirror window.
	Applied uint64
	// Checkpoints counts completed coordinated checkpoints.
	Checkpoints uint64
	// Restores counts replays of this rank's state out of peer replicas.
	Restores uint64
	// Replays counts replay streams this rank served to respawned peers.
	Replays uint64
	// Generations is the number of world generations this process joined.
	Generations uint64
}

// snapshot is one window's checkpointed state: both local buffers plus the
// digests proved at the checkpoint (own primary, predecessor's primary —
// the latter is what the mirror must hash to).
type snapshot struct {
	prim       []byte
	mir        []byte
	primDigest [32]byte
	predDigest [32]byte
}

// Manager owns one process's recovery state. It persists across world
// generations: Begin binds it to each new generation's Proc, while the
// checkpoint snapshots, epoch counter, and statistics carry over. A fresh
// Manager (or one Reset after an injected death) joins with nothing and is
// rebuilt from its peers' replicas by Restore.
type Manager struct {
	mu    sync.Mutex
	epoch int
	fresh bool // no local state: must be rebuilt from peer replicas
	snaps []snapshot

	gen      int
	rejoined []int

	p    *runtime.Proc
	n    int
	rank int
	wins []*Win
	ctl  *rma.Win

	diedAt   time.Time
	detectAt time.Time

	plantSkipNth uint64 // test-only: Nth mirror chain silently skipped
	mirrorSeen   uint64

	stats Stats
}

// NewManager returns a Manager for a process joining generation 0 with no
// prior state (but not marked fresh: at generation 0 nobody has state, so
// there is nothing to restore).
func NewManager() *Manager { return &Manager{} }

// Bootstrap records the world generation this process is about to join and
// which ranks joined it with a rejoin hello. Wire it to
// runtime.DistOptions.OnBootstrap; it must run before Begin.
func (m *Manager) Bootstrap(gen int, rejoined []int) {
	m.mu.Lock()
	m.gen = gen
	m.rejoined = append([]int(nil), rejoined...)
	m.stats.Generations++
	m.mu.Unlock()
}

// Begin binds the manager to this generation's rank handle and allocates
// the control window the collective protocols use. Collective: every rank
// must call it at the same point, before any AllocateReplicated. The
// registered peer-failure listener stamps the detection time the recovery
// benchmark reports.
func (m *Manager) Begin(p *runtime.Proc) {
	m.mu.Lock()
	m.p = p
	m.n = p.N()
	m.rank = p.Rank()
	m.wins = nil
	m.detectAt = time.Time{}
	m.mu.Unlock()
	m.ctl = rma.Allocate(p, ctlSize(p.N()))
	p.OnPeerFailure(func(failed int, err error) {
		m.mu.Lock()
		if m.detectAt.IsZero() {
			m.detectAt = time.Now()
		}
		m.mu.Unlock()
	})
	p.Barrier()
}

// Control-window layout: one 16-byte presence slot per rank (epoch, flags)
// followed by one 32-byte digest slot per rank.
func ctlSize(n int) int       { return n * (16 + 32) }
func presenceOff(r int) int   { return r * 16 }
func digestOff(n, r int) int  { return n*16 + r*32 }
func (m *Manager) buddy() int { return (m.rank + 1) % m.n }
func (m *Manager) pred() int  { return (m.rank - 1 + m.n) % m.n }

// Proc returns the rank handle the manager is currently bound to (nil
// before the first Begin). Callers use it to detect a manager carried over
// from a previous generation that needs re-binding.
func (m *Manager) Proc() *runtime.Proc {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.p
}

// Epoch returns the number of completed checkpoints this process holds.
// Applications key their replay-safe initialization off it: run the write
// phase only when Epoch() == 0.
func (m *Manager) Epoch() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// Gen returns the world generation recorded by Bootstrap.
func (m *Manager) Gen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.gen
}

// Fresh reports whether this process joined with no local state and has
// not yet been rebuilt by Restore.
func (m *Manager) Fresh() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fresh
}

// Stats returns a snapshot of the recovery counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// DiedAt returns when Die was called on this manager (zero if never).
func (m *Manager) DiedAt() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.diedAt
}

// DetectedAt returns when this rank first observed a peer failure in the
// current generation (zero if none).
func (m *Manager) DetectedAt() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.detectAt
}

// Reset discards all local recovery state, leaving the manager as a
// respawned process would start: fresh, epoch 0, nothing snapshotted. The
// resilient runners call it on the victim after an injected death so the
// same goroutine models the relaunched process.
func (m *Manager) Reset() {
	m.mu.Lock()
	m.epoch = 0
	m.snaps = nil
	m.fresh = true
	m.diedAt = time.Time{}
	m.mu.Unlock()
}

// Die marks this rank dead and unwinds it with ErrInjectedDeath. The panic
// travels the runtime's rank-panic path, so the process's sockets close
// abruptly and peers observe an ordinary peer failure. Never returns.
func (m *Manager) Die() {
	m.mu.Lock()
	m.diedAt = time.Now()
	m.mu.Unlock()
	panic(fmt.Errorf("rank %d: %w", m.rank, ErrInjectedDeath))
}

// SetPlantSkipMirrorNth arms a test-only defect: the Nth write mirrored
// through this manager (1-based, counting handler chains and local-commit
// chains together) is silently dropped, leaving the buddy's mirror stale.
// The next Checkpoint must catch the divergence; the internal/check
// ReplicaConsistency model proves it does.
func (m *Manager) SetPlantSkipMirrorNth(nth int) {
	m.mu.Lock()
	m.plantSkipNth = uint64(nth)
	m.mirrorSeen = 0
	m.mu.Unlock()
}

// skipMirror reports whether this mirror chain is the planted casualty.
func (m *Manager) skipMirror() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mirrorSeen++
	return m.plantSkipNth != 0 && m.mirrorSeen == m.plantSkipNth
}

// Win is a replicated window: a primary holding this rank's data and a
// mirror holding the predecessor's, kept coherent by forwarding every
// primary write to the buddy.
type Win struct {
	m         *Manager
	idx       int
	prim      *rma.Win
	mir       *rma.Win
	regMirror *core.HandlerReg
	regApply  *core.HandlerReg
}

// Free collectively releases the window pair and detaches its handlers.
// Only for teardown: snapshots taken while the window was live no longer
// correspond to the manager's window list, so a Restore after a Free of a
// still-needed window is undefined.
func (w *Win) Free() {
	m := w.m
	m.mu.Lock()
	for i, x := range m.wins {
		if x == w {
			m.wins = append(m.wins[:i], m.wins[i+1:]...)
			break
		}
	}
	m.mu.Unlock()
	w.regMirror.Unregister()
	w.regApply.Unregister()
	w.prim.Free()
	w.mir.Free()
}

// AllocateReplicated creates a replicated window of the given size on
// every rank. Collective: all ranks must call it in the same order with
// the same size, after Begin. The returned window's remote-write surface
// (Put, CommitLocal) keeps the buddy mirror coherent transparently.
func (m *Manager) AllocateReplicated(size int) *Win {
	p := m.p
	w := &Win{m: m, prim: rma.Allocate(p, size), mir: rma.Allocate(p, size)}
	m.mu.Lock()
	w.idx = len(m.wins)
	m.wins = append(m.wins, w)
	m.mu.Unlock()

	// Remote writes land in the primary as TagMirror notified puts; the
	// handler forwards the deposited bytes to the buddy's mirror with a
	// chained notified put (legal from handler context — no origin rank to
	// charge). The chain targets this window's buddy instance: windows are
	// SPMD-symmetric, so the local mirror handle addresses every rank's.
	// The bytes are read under the region lock, not in place: the put
	// completed at commit (on shm, at the origin's own copy into the
	// window arena), so the origin may already be overwriting the slot.
	w.regMirror = core.RegisterHandlerCfg(w.prim, TagMirror, func(msg *core.AMsg) {
		if m.skipMirror() {
			return
		}
		data := make([]byte, msg.Len)
		w.prim.ReadLocal(msg.Offset, data)
		core.ChainPutNotify(w.mir, m.buddy(), msg.Offset, data, TagApply)
		m.mu.Lock()
		m.stats.Mirrored++
		m.mu.Unlock()
	}, core.AMConfig{Workers: 1})
	// The apply handler only counts: the put itself deposited the bytes.
	w.regApply = core.RegisterHandlerCfg(w.mir, TagApply, func(msg *core.AMsg) {
		m.mu.Lock()
		m.stats.Applied++
		m.mu.Unlock()
	}, core.AMConfig{Workers: 1})

	// Handlers must be registered on every rank before the first mirrored
	// write can arrive anywhere.
	p.Barrier()
	return w
}

// Size returns the window's byte length.
func (w *Win) Size() int { return w.prim.Size() }

// Primary returns the underlying primary window, for read-side access
// (gets, notified reads) that needs no replication.
func (w *Win) Primary() *rma.Win { return w.prim }

// Mirror returns the underlying mirror window (the predecessor's copy).
// Recovery and verification use it; applications normally should not.
func (w *Win) Mirror() *rma.Win { return w.mir }

// Buffer returns the primary's local buffer.
func (w *Win) Buffer() []byte { return w.prim.Buffer() }

// ReadLocal copies primary bytes at off into dst.
func (w *Win) ReadLocal(off int, dst []byte) { w.prim.ReadLocal(off, dst) }

// Put writes data into target's primary at off and forwards it to the
// buddy's mirror. Implemented as a notified put with the reserved mirror
// tag, so the target's handler performs the forwarding; completion of the
// returned op does not imply the mirror has applied — that is what
// Checkpoint's quiesce proves.
func (w *Win) Put(target, off int, data []byte) *fabric.Op {
	return core.PutNotify(w.prim, target, off, data, TagMirror)
}

// PutNotify writes data into target's primary at off, forwards it to the
// buddy's mirror, and raises the application's tag at the target. The data
// travels once (on the mirror put); the application notification is a
// zero-byte notified put that follows it on the same pair, so per-pair
// FIFO delivery guarantees the bytes are deposited before the application
// notification can match.
func (w *Win) PutNotify(target, off int, data []byte, tag int) *fabric.Op {
	core.PutNotify(w.prim, target, off, data, TagMirror)
	return core.PutNotify(w.prim, target, off, nil, tag)
}

// CommitLocal stores data into the local primary at off and forwards it to
// the buddy's mirror with a chained notified put. Safe from both rank and
// handler context, so services can route their commit path through it.
func (w *Win) CommitLocal(off int, data []byte) {
	w.prim.CommitLocal(off, data)
	m := w.m
	if m.skipMirror() {
		return
	}
	core.ChainPutNotify(w.mir, m.buddy(), off, data, TagApply)
	m.mu.Lock()
	m.stats.Mirrored++
	m.mu.Unlock()
}

// FlushAll fences all outstanding operations this rank issued (the NIC
// flush covers chained mirror puts too).
func (w *Win) FlushAll() { w.prim.FlushAll() }

// quiesce drains the replication plane to a provable fixpoint: every write
// issued before the call is in some primary, forwarded, and applied in the
// buddy's mirror on every rank. Two rounds because a mirror chain is born
// in handler context after the originating put completes: round one lands
// all primary writes and runs their handlers (issuing chains), round two
// lands the chains and runs the apply handlers.
func (m *Manager) quiesce() {
	p := m.p
	for round := 0; round < 2; round++ {
		m.ctl.FlushAll() // NIC-wide: all outstanding ops, chained included
		p.Barrier()
		core.FlushAM(p) // run what the flushed traffic enqueued
		p.Barrier()
	}
}

// digests hashes the concatenation of all replicated primaries and all
// replicated mirrors, in allocation order.
func (m *Manager) digests() (prim, mir [32]byte) {
	hp, hm := sha256.New(), sha256.New()
	for _, w := range m.wins {
		hp.Write(w.prim.Buffer())
		hm.Write(w.mir.Buffer())
	}
	copy(prim[:], hp.Sum(nil))
	copy(mir[:], hm.Sum(nil))
	return
}

// Checkpoint coordinates an in-memory checkpoint across all ranks:
// quiesce, prove every mirror byte-equal to its primary by an all-gather
// of SHA-256 digests, snapshot both buffers locally, and advance the
// epoch. Collective. On a divergence (a lost or corrupted mirror write)
// every rank whose mirror mismatches returns an error and no rank
// advances its epoch inconsistently: the barriers bracket the local
// snapshot so survivors always agree on the epoch.
func (m *Manager) Checkpoint() error {
	p := m.p
	m.quiesce()

	// All-gather: my primary digest into everyone's slot[rank].
	primD, mirD := m.digests()
	m.ctl.CommitLocal(digestOff(m.n, m.rank), primD[:])
	req := core.NotifyInit(m.ctl, core.AnySource, tagDigest, m.n-1)
	req.Start()
	for q := 0; q < m.n; q++ {
		if q == m.rank {
			continue
		}
		core.PutNotify(m.ctl, q, digestOff(m.n, m.rank), primD[:], tagDigest)
	}
	req.Wait()
	req.Free()

	// My mirror must hash to my predecessor's primary digest. The verdict
	// is all-gathered (doubling as the pre-snapshot barrier) so every
	// rank agrees whether the epoch advances: no rank may walk away with
	// an error while peers block in a collective.
	var predD [32]byte
	m.ctl.ReadLocal(digestOff(m.n, m.pred()), predD[:])
	var vb [16]byte
	if mirD == predD {
		put64(vb[0:8], 1)
	}
	m.ctl.CommitLocal(presenceOff(m.rank), vb[:])
	vreq := core.NotifyInit(m.ctl, core.AnySource, tagVerdict, m.n-1)
	vreq.Start()
	for q := 0; q < m.n; q++ {
		if q == m.rank {
			continue
		}
		core.PutNotify(m.ctl, q, presenceOff(m.rank), vb[:], tagVerdict)
	}
	vreq.Wait()
	vreq.Free()
	for q := 0; q < m.n; q++ {
		var qb [16]byte
		m.ctl.ReadLocal(presenceOff(q), qb[:])
		if get64(qb[0:8]) != 1 {
			return fmt.Errorf("ft: checkpoint epoch %d: mirror at rank %d diverged from rank %d's primary (local mirror %x, expected %x)",
				m.Epoch(), q, (q-1+m.n)%m.n, mirD[:8], predD[:8])
		}
	}

	// Local-only from here to the final barrier, so epochs stay in
	// lockstep even if a rank dies immediately after.
	m.mu.Lock()
	m.snaps = make([]snapshot, len(m.wins))
	for i, w := range m.wins {
		s := &m.snaps[i]
		s.prim = append([]byte(nil), w.prim.Buffer()...)
		s.mir = append([]byte(nil), w.mir.Buffer()...)
	}
	if len(m.snaps) > 0 {
		m.snaps[0].primDigest = primD
		m.snaps[0].predDigest = predD
	}
	m.epoch++
	m.stats.Checkpoints++
	m.mu.Unlock()

	p.Barrier()
	return nil
}

// presence is one rank's generation-start declaration.
type presence struct {
	epoch int
	fresh bool
}

// exchangePresence all-gathers every rank's (epoch, fresh) pair through
// the control window.
func (m *Manager) exchangePresence() []presence {
	m.mu.Lock()
	var buf [16]byte
	put64(buf[0:8], uint64(m.epoch))
	if m.fresh {
		put64(buf[8:16], 1)
	}
	m.mu.Unlock()

	m.ctl.CommitLocal(presenceOff(m.rank), buf[:])
	req := core.NotifyInit(m.ctl, core.AnySource, tagPresence, m.n-1)
	req.Start()
	for q := 0; q < m.n; q++ {
		if q == m.rank {
			continue
		}
		core.PutNotify(m.ctl, q, presenceOff(m.rank), buf[:], tagPresence)
	}
	req.Wait()
	req.Free()

	all := make([]presence, m.n)
	for q := 0; q < m.n; q++ {
		var pb [16]byte
		m.ctl.ReadLocal(presenceOff(q), pb[:])
		all[q] = presence{epoch: int(get64(pb[0:8])), fresh: get64(pb[8:16]) != 0}
	}
	return all
}

func put64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func get64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

// replayChunk bounds one replay put so restore traffic interleaves with
// other pairs instead of monopolizing the wire.
const replayChunk = 64 << 10

// replay streams src into rank target's instance of dst, then raises
// tagRestore there.
func (m *Manager) replay(dst *rma.Win, target int, src []byte) {
	for off := 0; off < len(src); off += replayChunk {
		end := off + replayChunk
		if end > len(src) {
			end = len(src)
		}
		dst.Put(target, off, src[off:end])
	}
	dst.FlushAll()
	core.PutNotify(m.ctl, target, 0, nil, tagRestore)
}

// Restore brings every rank back to the latest consistent checkpoint after
// a generation restart. Collective, called after all AllocateReplicated
// calls of the new generation. Survivors restore their own buffers from
// their local snapshots; each fresh (respawned) rank has its primary
// replayed out of its buddy's mirror snapshot and its mirror out of its
// predecessor's primary snapshot. Returns ErrUnrecoverable when two
// adjacent ranks are fresh (a primary and its only copy died together) or
// survivors disagree on the epoch. A first generation (nobody fresh, epoch
// 0) is a no-op.
func (m *Manager) Restore() error {
	p := m.p
	all := m.exchangePresence()

	recovery := -1
	var freshSet []int
	for q, pr := range all {
		if pr.fresh {
			freshSet = append(freshSet, q)
			continue
		}
		if recovery == -1 || pr.epoch < recovery {
			recovery = pr.epoch
		}
	}
	if recovery <= 0 {
		// Nothing checkpointed anywhere (first generation, or everything
		// was lost): windows start zeroed, applications re-run their
		// Epoch() == 0 phase.
		m.mu.Lock()
		m.epoch = 0
		m.snaps = nil
		m.fresh = false
		m.mu.Unlock()
		p.Barrier()
		return nil
	}
	for _, q := range freshSet {
		if m.n > 1 && all[(q+1)%m.n].fresh {
			return fmt.Errorf("%w: adjacent ranks %d and %d both lost", ErrUnrecoverable, q, (q+1)%m.n)
		}
	}
	for q, pr := range all {
		if !pr.fresh && pr.epoch != recovery {
			return fmt.Errorf("%w: rank %d at epoch %d, job recovering to %d", ErrUnrecoverable, q, pr.epoch, recovery)
		}
	}

	m.mu.Lock()
	fresh := m.fresh
	snaps := m.snaps
	m.mu.Unlock()

	if !fresh {
		// Survivor: rebuild both local buffers from the snapshot, then
		// serve replay streams for any fresh neighbor.
		for i, w := range m.wins {
			w.prim.CommitLocal(0, snaps[i].prim)
			w.mir.CommitLocal(0, snaps[i].mir)
		}
		served := 0
		for _, f := range freshSet {
			if (f+1)%m.n == m.rank {
				// I am f's buddy: my mirror snapshot is f's primary.
				for i, w := range m.wins {
					m.replay(w.prim, f, snaps[i].mir)
				}
				served++
			}
			if (m.rank+1)%m.n == f {
				// I am f's predecessor: my primary snapshot is f's mirror.
				for i, w := range m.wins {
					m.replay(w.mir, f, snaps[i].prim)
				}
				served++
			}
		}
		m.mu.Lock()
		m.stats.Replays += uint64(served)
		m.mu.Unlock()
	} else {
		// Fresh: wait for both replay streams (buddy fills the primary,
		// predecessor fills the mirror — with N == 2 one rank serves
		// both, sending two completion notifications).
		req := core.NotifyInit(m.ctl, core.AnySource, tagRestore, 2)
		req.Start()
		req.Wait()
		req.Free()
		m.mu.Lock()
		m.epoch = recovery
		m.fresh = false
		m.stats.Restores++
		m.mu.Unlock()
	}

	p.Barrier()

	// Everyone re-snapshots the restored state so the next death recovers
	// to this same epoch without re-replaying history. The digests are
	// recomputed locally — the byte-equality they witness was proved by
	// the checkpoint the restore replayed.
	primD, mirD := m.digests()
	m.mu.Lock()
	m.snaps = make([]snapshot, len(m.wins))
	for i, w := range m.wins {
		s := &m.snaps[i]
		s.prim = append([]byte(nil), w.prim.Buffer()...)
		s.mir = append([]byte(nil), w.mir.Buffer()...)
	}
	if len(m.snaps) > 0 {
		m.snaps[0].primDigest = primD
		m.snaps[0].predDigest = mirD
	}
	m.epoch = recovery
	m.mu.Unlock()

	p.Barrier()
	return nil
}

// VerifyMirror proves, without any network traffic, that this rank's
// mirror still matches the predecessor's primary as of the last
// checkpoint: it hashes the mirror snapshot and compares it to the digest
// the predecessor published at that checkpoint. The shared-memory degraded
// path uses it after a peer death: the engine cannot respawn the rank, but
// survivors can still prove the dead rank's checkpointed bytes are intact
// in their replicas.
func (m *Manager) VerifyMirror() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.epoch == 0 || len(m.snaps) == 0 {
		return nil // nothing checkpointed, nothing to verify
	}
	h := sha256.New()
	for i := range m.snaps {
		h.Write(m.snaps[i].mir)
	}
	var got [32]byte
	copy(got[:], h.Sum(nil))
	if got != m.snaps[0].predDigest {
		return fmt.Errorf("ft: mirror snapshot of rank %d diverged from its checkpoint digest", (m.rank-1+m.n)%m.n)
	}
	return nil
}
