// Package rma implements the MPI-3 One Sided baseline the paper compares
// against: windows with put/get/accumulate/fetch-and-op/compare-and-swap,
// memory synchronization (flush family), and process synchronization —
// fence, general active target (PSCW: post/start/complete/wait), and
// passive target (lock/unlock) — all built on the fabric's RDMA verbs.
//
// Synchronization costs are *not* hand-modeled: fence runs a real
// dissemination barrier over control messages, PSCW exchanges real
// post/complete messages, and flush waits for real remote-completion ACKs,
// so the extra round trips the paper attributes to One Sided
// producer-consumer patterns (Figure 2c) arise from actual protocol
// traffic.
package rma

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/runtime"
)

// winSysBytes is the per-window system region holding the passive-target
// lock word (offset 0).
const winSysBytes = 64

// worldWinKey tracks per-rank window-creation order so region IDs stay
// symmetric across ranks.
type worldWinKey struct{}

type winCounter struct{ next int }

// Win is one rank's handle on a collectively allocated RMA window.
type Win struct {
	p   *runtime.Proc
	nic *fabric.NIC

	ID     int // collective window id (creation order)
	user   *fabric.MemRegion
	sys    *fabric.MemRegion
	userID int
	sysID  int

	fenceEpoch int
	postedBy   []int // PSCW: origins of the current exposure epoch
	startedTo  []int // PSCW: targets of the current access epoch
}

// Message header words (fabric.MsgHdr) per class:
//
//	ClassRMAPost, ClassRMAComplete  {winID}
//	ClassRMAFence                   {winID, epoch, round}

// syncKey attaches the per-rank synchronization stash.
type syncKey struct{}

// fenceKey identifies one expected fence-barrier message.
type fenceKey struct {
	winID, epoch, round, origin int
}

// pscwKey identifies one expected PSCW post/complete message.
type pscwKey struct {
	winID, origin int
}

// syncState buffers synchronization messages a rank popped from its class
// queues while waiting for a different one. The class FIFOs only order by
// class; a fence wait cares about <window, epoch, round, origin> and a
// PSCW wait about <window, origin>, and with several windows (or an
// origin running epochs ahead, which PSCW permits) a pop can surface a
// message destined for a later wait on this same rank. Counts rather than
// flags: a peer may legitimately send the same pscwKey twice before we
// consume once.
type syncState struct {
	fence     map[fenceKey]int
	posts     map[pscwKey]int
	completes map[pscwKey]int
}

func syncStateOf(p *runtime.Proc) *syncState {
	return p.Attach(syncKey{}, func() any {
		return &syncState{
			fence:     make(map[fenceKey]int),
			posts:     make(map[pscwKey]int),
			completes: make(map[pscwKey]int),
		}
	}).(*syncState)
}

// take consumes one buffered message under key, if any.
func take[K comparable](m map[K]int, k K) bool {
	if m[k] == 0 {
		return false
	}
	m[k]--
	if m[k] == 0 {
		delete(m, k)
	}
	return true
}

// Allocate collectively creates a window of size bytes on every rank
// (MPI_Win_allocate). Every rank must call it in the same program order.
func Allocate(p *runtime.Proc, size int) *Win {
	ctr := p.Attach(worldWinKey{}, func() any { return &winCounter{} }).(*winCounter)
	id := ctr.next
	ctr.next++

	nic := p.NIC()
	sys := nic.Register(make([]byte, winSysBytes))
	user := nic.RegisterWindow(size)
	w := &Win{
		p: p, nic: nic, ID: id,
		user: user, sys: sys,
		userID: user.ID, sysID: sys.ID,
	}
	// Announce before the barrier: once remote ranks are released they may
	// target this window, and observers (the notification dispatcher) must
	// already own its delivery path.
	p.AnnounceWindow(w.userID)
	p.Barrier() // remote ranks may access once everyone has registered
	return w
}

// Free collectively releases the window.
func (w *Win) Free() {
	w.p.Barrier()
	w.p.AnnounceWindowFreed(w.userID)
	w.nic.Deregister(w.user)
	w.nic.Deregister(w.sys)
}

// Buffer returns the local window memory.
func (w *Win) Buffer() []byte { return w.user.Bytes() }

// Load64 atomically reads the uint64 at off in the local window memory
// (safe against concurrent remote deliveries; used by polling consumers).
func (w *Win) Load64(off int) uint64 { return w.user.Load64(off) }

// Store64 atomically writes the uint64 at off in the local window memory.
func (w *Win) Store64(off int, v uint64) { w.user.Store64(off, v) }

// CommitLocal copies data into the local window memory at off under the
// window region's write lock: the owner-side analog of a remote put
// commit. A local writer that updates served window state through it
// (e.g. an active-message handler) is race-safe against concurrent remote
// gets and puts, and each call is atomic with respect to any single
// remote read.
func (w *Win) CommitLocal(off int, data []byte) { w.user.CommitLocal(off, data) }

// ReadLocal copies len(dst) bytes of local window memory at off into dst
// under the window region's read lock, race-safe against concurrent
// remote commits.
func (w *Win) ReadLocal(off int, dst []byte) { w.user.ReadLocal(off, dst) }

// Size returns the window size in bytes.
func (w *Win) Size() int { return w.user.Len() }

// Put writes data to target's window at targetOff (MPI_Put). Completion
// requires a flush or a synchronization call.
func (w *Win) Put(target, targetOff int, data []byte) *fabric.Op {
	return w.nic.Put(w.p.Proc, target, w.userID, targetOff, data, fabric.Imm{})
}

// Get reads len(dst) bytes from target's window at targetOff (MPI_Get).
func (w *Win) Get(target, targetOff int, dst []byte) *fabric.Op {
	return w.nic.Get(w.p.Proc, target, w.userID, targetOff, dst, fabric.Imm{})
}

// Accumulate applies an element-wise float64 reduction into target's
// window (MPI_Accumulate with MPI_SUM or MPI_REPLACE).
func (w *Win) Accumulate(target, targetOff int, vals []float64, op fabric.AccumOp) *fabric.Op {
	return w.nic.Accumulate(w.p.Proc, target, w.userID, targetOff, vals, op, fabric.Imm{})
}

// IFetchAndOp starts an atomic fetch-and-add of delta on the uint64 at
// targetOff in target's window and returns the handle; the previous value
// is Op.Result() after completion (MPI_Fetch_and_op with MPI_SUM).
func (w *Win) IFetchAndOp(target, targetOff int, delta uint64) *fabric.Op {
	return w.nic.Atomic(w.p.Proc, target, w.userID, targetOff, fabric.AtomicFetchAdd, delta, 0, fabric.Imm{})
}

// awaitChecked parks until op completes, panicking with its error when
// the peer-failure detector completed it: a failed atomic's zero Result
// must never be mistaken for a real fetched value (a CAS spin would read
// it as "lock acquired").
func (w *Win) awaitChecked(op *fabric.Op) uint64 {
	op.Await(w.p.Proc)
	if err := op.Err(); err != nil {
		panic(err)
	}
	v := op.Result()
	op.Detach()
	return v
}

// FetchAndOp is the blocking convenience form of IFetchAndOp.
func (w *Win) FetchAndOp(target, targetOff int, delta uint64) uint64 {
	return w.awaitChecked(w.IFetchAndOp(target, targetOff, delta))
}

// CompareAndSwap atomically replaces the uint64 at targetOff with swap if
// it equals compare, returning the previous value (MPI_Compare_and_swap).
func (w *Win) CompareAndSwap(target, targetOff int, compare, swap uint64) uint64 {
	op := w.nic.Atomic(w.p.Proc, target, w.userID, targetOff, fabric.AtomicCAS, swap, compare, fabric.Imm{})
	return w.awaitChecked(op)
}

// Flush blocks until all operations this rank issued to target are
// complete at the target (MPI_Win_flush).
func (w *Win) Flush(target int) { w.nic.Flush(w.p.Proc, target) }

// FlushAll blocks until all operations this rank issued are complete at
// their targets (MPI_Win_flush_all).
func (w *Win) FlushAll() { w.nic.FlushAll(w.p.Proc) }

// Fence completes the current epoch on all ranks (MPI_Win_fence): a full
// flush followed by a dissemination barrier over the window.
func (w *Win) Fence() {
	w.FlushAll()
	n := w.p.N()
	me := w.p.Rank()
	epoch := w.fenceEpoch
	w.fenceEpoch++
	st := syncStateOf(w.p)
	for k, round := 1, 0; k < n; k, round = k*2, round+1 {
		to := (me + k) % n
		from := (me - k + n) % n
		w.nic.PostMsg(w.p.Proc, to, runtime.ClassRMAFence, fabric.MsgHdr{w.ID, epoch, round}, nil, false)
		want := fenceKey{w.ID, epoch, round, from}
		for !take(st.fence, want) {
			m := w.nic.WaitMsgClass(w.p.Proc, runtime.ClassRMAFence)
			st.fence[fenceKey{m.Hdr[0], m.Hdr[1], m.Hdr[2], m.Origin}]++
		}
	}
}

// Post opens an exposure epoch to the given origin group
// (MPI_Win_post): each origin's Start unblocks once the post arrives.
func (w *Win) Post(origins []int) {
	if w.postedBy != nil {
		panic(fmt.Sprintf("rma: rank %d: Post during an open exposure epoch", w.p.Rank()))
	}
	w.postedBy = append([]int(nil), origins...)
	for _, o := range origins {
		w.nic.PostMsg(w.p.Proc, o, runtime.ClassRMAPost, fabric.MsgHdr{w.ID}, nil, false)
	}
}

// Start opens an access epoch to the given target group (MPI_Win_start),
// blocking until every target has posted.
func (w *Win) Start(targets []int) {
	if w.startedTo != nil {
		panic(fmt.Sprintf("rma: rank %d: Start during an open access epoch", w.p.Rank()))
	}
	w.startedTo = append([]int(nil), targets...)
	st := syncStateOf(w.p)
	for _, t := range targets {
		want := pscwKey{w.ID, t}
		for !take(st.posts, want) {
			m := w.nic.WaitMsgClass(w.p.Proc, runtime.ClassRMAPost)
			st.posts[pscwKey{m.Hdr[0], m.Origin}]++
		}
	}
}

// Complete closes the access epoch (MPI_Win_complete): flushes all
// operations to the start group and notifies each target.
func (w *Win) Complete() {
	if w.startedTo == nil {
		panic(fmt.Sprintf("rma: rank %d: Complete without Start", w.p.Rank()))
	}
	for _, t := range w.startedTo {
		w.nic.Flush(w.p.Proc, t)
	}
	for _, t := range w.startedTo {
		w.nic.PostMsg(w.p.Proc, t, runtime.ClassRMAComplete, fabric.MsgHdr{w.ID}, nil, false)
	}
	w.startedTo = nil
}

// Wait closes the exposure epoch (MPI_Win_wait): blocks until every origin
// in the post group has completed.
func (w *Win) Wait() {
	if w.postedBy == nil {
		panic(fmt.Sprintf("rma: rank %d: Wait without Post", w.p.Rank()))
	}
	st := syncStateOf(w.p)
	for _, o := range w.postedBy {
		want := pscwKey{w.ID, o}
		for !take(st.completes, want) {
			m := w.nic.WaitMsgClass(w.p.Proc, runtime.ClassRMAComplete)
			st.completes[pscwKey{m.Hdr[0], m.Origin}]++
		}
	}
	w.postedBy = nil
}

// Passive-target lock word encoding (in the window's system region at
// offset 0): bit 0 = exclusive held, bits 1.. = shared holder count * 2.
const (
	lockExclusive = 1
	lockSharedInc = 2
)

// Lock opens a passive-target access epoch (MPI_Win_lock). exclusive
// selects MPI_LOCK_EXCLUSIVE vs MPI_LOCK_SHARED. The lock is taken with
// remote atomics only — no target CPU involvement.
func (w *Win) Lock(target int, exclusive bool) {
	backoff := w.p.Model().FMA.L
	if exclusive {
		for {
			old := w.nic.Atomic(w.p.Proc, target, w.sysID, 0, fabric.AtomicCAS, lockExclusive, 0, fabric.Imm{})
			got := w.awaitChecked(old)
			if got == 0 {
				return
			}
			w.p.Sleep(backoff)
		}
	}
	for {
		op := w.nic.Atomic(w.p.Proc, target, w.sysID, 0, fabric.AtomicFetchAdd, lockSharedInc, 0, fabric.Imm{})
		got := w.awaitChecked(op)
		if got&lockExclusive == 0 {
			return
		}
		// A writer holds it: undo and retry.
		undo := w.nic.Atomic(w.p.Proc, target, w.sysID, 0, fabric.AtomicFetchAdd, ^uint64(lockSharedInc-1), 0, fabric.Imm{})
		w.awaitChecked(undo)
		w.p.Sleep(backoff)
	}
}

// Unlock closes a passive-target access epoch (MPI_Win_unlock), flushing
// first.
func (w *Win) Unlock(target int, exclusive bool) {
	w.Flush(target)
	var delta uint64
	if exclusive {
		delta = ^uint64(lockExclusive - 1) // -1
	} else {
		delta = ^uint64(lockSharedInc - 1) // -2
	}
	op := w.nic.Atomic(w.p.Proc, target, w.sysID, 0, fabric.AtomicFetchAdd, delta, 0, fabric.Imm{})
	w.awaitChecked(op)
}

// LockAll opens a shared passive-target epoch to every rank
// (MPI_Win_lock_all).
func (w *Win) LockAll() {
	for t := 0; t < w.p.N(); t++ {
		w.Lock(t, false)
	}
}

// UnlockAll closes the epoch opened by LockAll (MPI_Win_unlock_all).
func (w *Win) UnlockAll() {
	for t := 0; t < w.p.N(); t++ {
		w.Unlock(t, false)
	}
}

// Sync synchronizes the private and public window copies
// (MPI_Win_sync). The fabric has a single copy, so this is a memory
// ordering no-op kept for API completeness.
func (w *Win) Sync() {}

// Proc returns the owning rank handle.
func (w *Win) Proc() *runtime.Proc { return w.p }

// UserRegionID exposes the window's fabric region id (used by the Notified
// Access layer, which shares window memory).
func (w *Win) UserRegionID() int { return w.userID }

// NIC returns the owning rank's NIC.
func (w *Win) NIC() *fabric.NIC { return w.nic }
