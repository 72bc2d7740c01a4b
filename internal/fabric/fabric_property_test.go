package fabric

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/exec"
)

// TestFIFOPropertyRandomSizes: notifications from one origin arrive in
// post order regardless of payload sizes (small FMA messages must not
// overtake large BTE ones).
func TestFIFOPropertyRandomSizes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		sizes := make([]int, n)
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(1<<17)
		}
		ok := true
		env := exec.NewSimEnv()
		f := New(env, DefaultConfig(2))
		err := env.Run(2, func(p *exec.Proc) {
			nic := f.NIC(p.Rank())
			reg := nic.Register(make([]byte, 1<<17))
			sink := sinkOn(reg)
			if p.Rank() == 0 {
				for i, s := range sizes {
					nic.Put(p, 1, reg.ID, 0, make([]byte, s), WithImm(uint32(i)))
				}
			} else {
				for i := 0; i < n; i++ {
					if sink.wait(p).Imm != uint32(i) {
						ok = false
					}
				}
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestAtomicSequenceProperty: a random interleaving of fetch-adds from
// multiple origins always sums correctly and every origin observes a
// strictly increasing sequence of fetched values for its own operations.
func TestAtomicSequenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ranks := 2 + rng.Intn(4)
		opsPer := 1 + rng.Intn(20)
		env := exec.NewSimEnv()
		f := New(env, DefaultConfig(ranks))
		ok := true
		err := env.Run(ranks, func(p *exec.Proc) {
			nic := f.NIC(p.Rank())
			reg := nic.Register(make([]byte, 8))
			if p.Rank() == 0 {
				return
			}
			prev := int64(-1)
			for i := 0; i < opsPer; i++ {
				op := nic.Atomic(p, 0, reg.ID, 0, AtomicFetchAdd, 1, 0, Imm{})
				op.Await(p)
				if int64(op.Result()) <= prev {
					ok = false
				}
				prev = int64(op.Result())
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestDeterministicDeliveryOrder: two identical sim runs deliver packets
// in the identical order (trace equality).
func TestDeterministicDeliveryOrder(t *testing.T) {
	run := func() []TraceEvent {
		var trace []TraceEvent
		env := exec.NewSimEnv()
		cfg := DefaultConfig(4)
		cfg.Trace = func(ev TraceEvent) { trace = append(trace, ev) }
		f := New(env, cfg)
		err := env.Run(4, func(p *exec.Proc) {
			nic := f.NIC(p.Rank())
			reg := nic.Register(make([]byte, 64))
			for t := 0; t < 4; t++ {
				if t == p.Rank() {
					continue
				}
				nic.Put(p, t, reg.ID, 0, make([]byte, 8*(p.Rank()+1)), WithImm(uint32(p.Rank())))
			}
			nic.FlushAll(p)
		})
		if err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}
