package runtime

import (
	goruntime "runtime"
	"sync/atomic"
	"testing"

	"repro/internal/exec"
	"repro/internal/simtime"
)

func TestRunBothModes(t *testing.T) {
	for _, mode := range []exec.Mode{exec.Sim, exec.Real} {
		t.Run(mode.String(), func(t *testing.T) {
			var count atomic.Int64
			err := Run(Options{Ranks: 6, Mode: mode}, func(p *Proc) {
				count.Add(1)
				if p.N() != 6 {
					t.Errorf("N = %d", p.N())
				}
				if p.NIC().Rank() != p.Rank() {
					t.Errorf("NIC rank mismatch")
				}
				if p.World().Fabric().Ranks() != 6 {
					t.Errorf("fabric ranks")
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if count.Load() != 6 {
				t.Fatalf("count = %d", count.Load())
			}
		})
	}
}

// TestSimLaunchAllocatesLittle pins the memory a Sim launch costs: a
// 16-rank Run with one Barrier allocates under 256 KiB in total. Every NIC
// once embedded a fixed notification ring (~320 KiB, 5.4 MB per such
// launch); an eager per-NIC or per-rank table of that size fails this pin.
func TestSimLaunchAllocatesLittle(t *testing.T) {
	const ranks, limit = 16, 256 << 10
	launch := func() {
		if err := Run(Options{Ranks: ranks, Mode: exec.Sim}, func(p *Proc) { p.Barrier() }); err != nil {
			t.Fatal(err)
		}
	}
	launch() // first use of lazily built package state
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	launch()
	goruntime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Fatalf("a %d-rank Sim Run with one Barrier allocates %d B, want under %d", ranks, got, limit)
	} else {
		t.Logf("a %d-rank Sim Run with one Barrier allocates %d B", ranks, got)
	}
}

func TestOptionsDefaults(t *testing.T) {
	w := NewWorld(Options{Ranks: 2, Mode: exec.Sim})
	o := w.Options()
	if o.EagerThreshold != 8192 {
		t.Errorf("EagerThreshold = %d", o.EagerThreshold)
	}
	if o.Model == nil || o.Model.OSend != simtime.FromMicros(0.29) {
		t.Errorf("Model default wrong")
	}
	if o.RanksPerNode != 1 {
		t.Errorf("RanksPerNode = %d", o.RanksPerNode)
	}
	if w.Env().Mode() != exec.Sim {
		t.Errorf("env mode")
	}
}

func TestInvalidRanksPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWorld(Options{Ranks: 0, Mode: exec.Sim})
}

func TestBarrierSynchronizes(t *testing.T) {
	for _, mode := range []exec.Mode{exec.Sim, exec.Real} {
		t.Run(mode.String(), func(t *testing.T) {
			const ranks = 5
			var phase [ranks]atomic.Int64
			err := Run(Options{Ranks: ranks, Mode: mode}, func(p *Proc) {
				if p.Rank() == 0 && mode == exec.Sim {
					p.Sleep(100 * simtime.Microsecond) // rank 0 arrives late
				}
				phase[p.Rank()].Store(1)
				p.Barrier()
				// After the barrier every rank must have reached phase 1.
				for i := 0; i < ranks; i++ {
					if phase[i].Load() != 1 {
						t.Errorf("rank %d saw rank %d before barrier", p.Rank(), i)
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRepeatedBarriersDoNotCrossTalk(t *testing.T) {
	err := Run(Options{Ranks: 4, Mode: exec.Sim}, func(p *Proc) {
		for i := 0; i < 20; i++ {
			p.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSingleRank(t *testing.T) {
	err := Run(Options{Ranks: 1, Mode: exec.Sim}, func(p *Proc) { p.Barrier() })
	if err != nil {
		t.Fatal(err)
	}
}

func TestAttachCachesPerRank(t *testing.T) {
	type key struct{}
	err := Run(Options{Ranks: 3, Mode: exec.Sim}, func(p *Proc) {
		calls := 0
		a := p.Attach(key{}, func() any { calls++; return p.Rank() * 10 })
		b := p.Attach(key{}, func() any { calls++; return -1 })
		if calls != 1 {
			t.Errorf("mk called %d times", calls)
		}
		if a != b || a.(int) != p.Rank()*10 {
			t.Errorf("attach values %v %v", a, b)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestModelAccessor(t *testing.T) {
	err := Run(Options{Ranks: 1, Mode: exec.Sim}, func(p *Proc) {
		if p.Model().FMA.L != simtime.FromMicros(1.02) {
			t.Errorf("Model FMA L = %v", p.Model().FMA.L)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
