package fabric

import (
	goruntime "runtime"
	"testing"

	"repro/internal/exec"
)

func TestPktKindStrings(t *testing.T) {
	want := map[pktKind]string{
		pktPut: "put", pktGetReq: "get-req", pktGetResp: "get-resp",
		pktAtomic: "atomic", pktAccum: "accum", pktAck: "ack",
		pktCtrl: "ctrl", pktData: "data", pktNotify: "notify",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d -> %q want %q", int(k), k.String(), s)
		}
	}
}

func TestGetNotifyModeUnknownString(t *testing.T) {
	if GetNotifyMode(9).String() != "getnotify(9)" {
		t.Error("unknown mode string")
	}
}

func TestRegionLenAndLoadStore(t *testing.T) {
	f := New(exec.NewSimEnv(), DefaultConfig(1))
	nic := f.NIC(0)
	r := nic.Register(make([]byte, 32))
	if r.Len() != 32 {
		t.Fatalf("Len = %d", r.Len())
	}
	r.Store64(8, 0xdeadbeefcafe)
	if got := r.Load64(8); got != 0xdeadbeefcafe {
		t.Fatalf("Load64 = %#x", got)
	}
	if r.Load64(0) != 0 {
		t.Fatal("untouched word non-zero")
	}
}

func TestPendingAndMsgDepth(t *testing.T) {
	env := exec.NewSimEnv()
	f := New(env, DefaultConfig(2))
	err := env.Run(2, func(p *exec.Proc) {
		nic := f.NIC(p.Rank())
		reg := nic.Register(make([]byte, 8))
		if p.Rank() == 0 {
			nic.Put(p, 1, reg.ID, 0, []byte{1}, Imm{})
			if nic.Pending(1) != 1 {
				t.Errorf("Pending = %d right after post", nic.Pending(1))
			}
			nic.Flush(p, 1)
			if nic.Pending(1) != 0 {
				t.Errorf("Pending = %d after flush", nic.Pending(1))
			}
			nic.PostMsg(p, 1, 5, MsgHdr{1}, nil, false)
			nic.PostMsg(p, 1, 6, MsgHdr{2}, nil, false)
			nic.PostMsg(p, 1, 7, MsgHdr{}, nil, false)
		} else {
			nic.WaitMsgClass(p, 7)
			if d := nic.MsgDepth(); d != 2 {
				t.Errorf("MsgDepth = %d, want 2 unconsumed", d)
			}
			if _, ok := nic.PollMsgClass(99); ok {
				t.Error("PollMsgClass matched nothing")
			}
			if m, ok := nic.PollMsgClass(6); !ok || m.Hdr[0] != 2 {
				t.Errorf("PollMsgClass(6) = %+v ok=%v", m, ok)
			}
			if d := nic.MsgClassDepth(5); d != 1 {
				t.Errorf("MsgClassDepth(5) = %d, want class-5 message untouched", d)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOpResultPanicsBeforeCompletion(t *testing.T) {
	env := exec.NewSimEnv()
	f := New(env, DefaultConfig(2))
	err := env.Run(2, func(p *exec.Proc) {
		if p.Rank() != 0 {
			return
		}
		nic := f.NIC(0)
		reg := nic.Register(make([]byte, 8))
		op := nic.Atomic(p, 1, reg.ID, 0, AtomicFetchAdd, 1, 0, Imm{})
		_ = op.Result() // incomplete: must panic
	})
	if err == nil {
		t.Fatal("expected panic surfaced as error")
	}
}

func TestNICCloseIdempotent(t *testing.T) {
	env := exec.NewRealEnv()
	f := New(env, DefaultConfig(2))
	f.Close()
	f.Close() // double close must be safe
}

func TestGetOutOfBoundsPanics(t *testing.T) {
	env := exec.NewSimEnv()
	f := New(env, DefaultConfig(2))
	err := env.Run(2, func(p *exec.Proc) {
		nic := f.NIC(p.Rank())
		reg := nic.Register(make([]byte, 8))
		if p.Rank() == 0 {
			dst := make([]byte, 16) // longer than the region
			nic.Get(p, 1, reg.ID, 0, dst, Imm{}).Await(p)
		}
	})
	if err == nil {
		t.Fatal("expected out-of-bounds get to fail the run")
	}
}

func TestAtomicOutOfBoundsPanics(t *testing.T) {
	env := exec.NewSimEnv()
	f := New(env, DefaultConfig(2))
	err := env.Run(2, func(p *exec.Proc) {
		nic := f.NIC(p.Rank())
		reg := nic.Register(make([]byte, 8))
		if p.Rank() == 0 {
			nic.Atomic(p, 1, reg.ID, 4, AtomicFetchAdd, 1, 0, Imm{}).Await(p)
		}
	})
	if err == nil {
		t.Fatal("expected out-of-bounds atomic to fail the run")
	}
}

func TestAccumulateOutOfBoundsPanics(t *testing.T) {
	env := exec.NewSimEnv()
	f := New(env, DefaultConfig(2))
	err := env.Run(2, func(p *exec.Proc) {
		nic := f.NIC(p.Rank())
		reg := nic.Register(make([]byte, 8))
		if p.Rank() == 0 {
			nic.Accumulate(p, 1, reg.ID, 0, []float64{1, 2}, AccumSum, Imm{}).Await(p)
		}
	})
	if err == nil {
		t.Fatal("expected out-of-bounds accumulate to fail the run")
	}
}

func TestRealDeliveryPanicAborts(t *testing.T) {
	// Under the Real engine a delivery-time bounds violation must surface
	// as a run error via deliverGuarded on the sending goroutine, not crash
	// the process or unwind the sender.
	env := exec.NewRealEnv()
	f := New(env, DefaultConfig(2))
	defer f.Close()
	err := env.Run(2, func(p *exec.Proc) {
		nic := f.NIC(p.Rank())
		reg := nic.Register(make([]byte, 8))
		if p.Rank() == 0 {
			nic.Put(p, 1, reg.ID, 4, make([]byte, 8), Imm{}) // overruns at delivery
			nic.Flush(p, 1)                                  // abort wakes this
		}
	})
	if err == nil {
		t.Fatal("expected delivery panic to abort the run")
	}
}

// TestRealFabricStartsNoGoroutines pins the delivery rule's structure: an
// in-process packet commits on the goroutine that sent it, so building a
// Real fabric starts no receive goroutine at all.
func TestRealFabricStartsNoGoroutines(t *testing.T) {
	before := goruntime.NumGoroutine()
	f := New(exec.NewRealEnv(), DefaultConfig(8))
	defer f.Close()
	if after := goruntime.NumGoroutine(); after > before {
		t.Fatalf("fabric.New started %d goroutines, want 0", after-before)
	}
}

// TestRealPutCompleteOnReturn: on the lossless Real engine a put has
// committed at the target, posted its notification and been acknowledged
// by the time Put returns — no thread at the target takes part.
func TestRealPutCompleteOnReturn(t *testing.T) {
	f := New(exec.NewRealEnv(), DefaultConfig(2))
	defer f.Close()
	reg := f.NIC(1).Register(make([]byte, 16))
	sink := sinkOn(reg)
	op := f.NIC(0).Put(nil, 1, reg.ID, 4, []byte("inline"), WithImm(77))
	if !op.Done() {
		t.Fatal("op not remotely complete when Put returned")
	}
	if err := op.Err(); err != nil {
		t.Fatalf("op error %v", err)
	}
	cqe, ok := sink.poll()
	if !ok {
		t.Fatal("no notification at the sink when Put returned")
	}
	if cqe.Imm != 77 || cqe.Origin != 0 || cqe.Offset != 4 || cqe.Len != 6 {
		t.Fatalf("CQE %+v", cqe)
	}
	if got := string(reg.Bytes()[4:10]); got != "inline" {
		t.Fatalf("region holds %q", got)
	}
}
