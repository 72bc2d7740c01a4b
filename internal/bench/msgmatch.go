package bench

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/fabric"
	"repro/internal/mp"
	"repro/internal/runtime"
)

// msgMatchClasses for the NIC-level measurements: hot is the class being
// probed/waited on, cold holds the load (queued backlog or parked
// waiters). The seed's single shared message queue made every hot-class
// probe scan the cold backlog and every cold-class wakeup rescan on hot
// arrivals; the bucketed engine isolates them.
const (
	msgMatchHot  = runtime.ClassUser + 50
	msgMatchCold = runtime.ClassUser + 51
)

// MsgMatch measures the message dispatch engine under load on the three
// control-plane paths the class buckets protect, as wall-clock ns on the
// Real engine (software cost, not modeled time):
//
//   - nic-poll: PollMsgClass on an empty hot class while K messages of
//     another class sit queued. The seed's PollMsg scanned all K under
//     its predicate on every miss.
//   - nic-wake: send-to-self then WaitMsgClass on the hot class while K
//     waiters are parked on K other classes. The seed's msgGate.Broadcast
//     woke all K on every arrival, each relocking and rescanning.
//   - mp-iprobe: mp.Iprobe miss while K unexpected eager messages are
//     buffered. The seed scanned the unexpected queue linearly.
func MsgMatch() *Table {
	ks := []int{1, 16, 64, 256}
	t := &Table{Name: "msgmatch",
		Title:   "Message matching microbenchmark: control-plane cost vs queue depth / waiter count K (Real engine)",
		Columns: []string{"K", "nic-poll-ns", "nic-wake-ns", "mp-iprobe-ns", "msg-high-water"}}
	for _, k := range ks {
		poll, hw := msgMatchPoll(k)
		wake := msgMatchWake(k)
		iprobe := msgMatchIprobe(k)
		t.AddRow(itoa(k), f2(poll), f2(wake), f2(iprobe), itoa(hw))
	}
	t.Notes = append(t.Notes,
		"flat ns across K is the point: each probe touches only its class bucket (hash on Msg.Class), each arrival wakes only waiters registered on that class, and MP matching hashes <source,tag>",
		"the seed scanned the shared message queue under a predicate on every poll/wake and rescanned the unexpected queue on every probe, so all three columns grew linearly in K")
	return t
}

// msgMatchPoll queues k cold-class messages on a single-rank fabric and
// measures a hot-class poll miss.
func msgMatchPoll(k int) (perOp float64, highWater int) {
	const iters = 200000
	env := exec.New(exec.Real)
	f := fabric.New(env, fabric.DefaultConfig(1))
	defer f.Close()
	err := env.Run(1, func(p *exec.Proc) {
		nic := f.NIC(0)
		for i := 0; i < k; i++ {
			nic.PostMsg(p, 0, msgMatchCold, fabric.MsgHdr{}, nil, false)
		}
		if d := nic.MsgDepth(); d != k { // a self-send commits before PostMsg returns
			panic(fmt.Sprintf("msgmatch: %d cold messages queued, want %d", d, k))
		}
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			if _, ok := nic.PollMsgClass(msgMatchHot); ok {
				panic("msgmatch: unexpected hot message")
			}
		}
		perOp = float64(time.Since(t0).Nanoseconds()) / iters
		highWater = nic.MsgHighWater()
	})
	if err != nil {
		panic(err)
	}
	return perOp, highWater
}

// msgMatchWake parks k waiters on k distinct classes and measures a
// send-to-self + hot-class wait round trip.
func msgMatchWake(k int) float64 {
	const iters = 20000
	var perOp float64
	env := exec.New(exec.Real)
	f := fabric.New(env, fabric.DefaultConfig(1))
	defer f.Close()
	err := env.Run(1, func(p *exec.Proc) {
		nic := f.NIC(0)
		var wg sync.WaitGroup
		for w := 0; w < k; w++ {
			wg.Add(1)
			go func(class int) {
				defer wg.Done()
				nic.WaitMsgClass(p, class)
			}(msgMatchCold + 1 + w)
		}
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			// The self-send commits before PostMsg returns, so the poll
			// finds it: the measurement is the delivery-side cost (who gets
			// woken per arrival), not this consumer's own parking latency.
			nic.PostMsg(p, 0, msgMatchHot, fabric.MsgHdr{}, nil, false)
			if _, ok := nic.PollMsgClass(msgMatchHot); !ok {
				panic("msgmatch: hot self-send not queued on return")
			}
		}
		perOp = float64(time.Since(t0).Nanoseconds()) / iters
		for w := 0; w < k; w++ {
			nic.PostMsg(p, 0, msgMatchCold+1+w, fabric.MsgHdr{}, nil, false)
		}
		wg.Wait()
	})
	if err != nil {
		panic(err)
	}
	return perOp
}

// msgMatchIprobe buffers k unexpected eager messages at rank 0 and
// measures a never-matching Iprobe.
func msgMatchIprobe(k int) float64 {
	const iters = 100000
	var perOp float64
	err := runtime.Run(runtime.Options{Ranks: 2, Mode: exec.Real}, func(p *runtime.Proc) {
		c := mp.New(p)
		if p.Rank() == 0 {
			p.Barrier()
			for c.UnexpectedDepth() < k {
				if _, ok := c.Iprobe(1, 9999); ok {
					panic("msgmatch: probe tag collided")
				}
			}
			t0 := time.Now()
			for i := 0; i < iters; i++ {
				if _, ok := c.Iprobe(1, 9999); ok {
					panic("msgmatch: unexpected match")
				}
			}
			perOp = float64(time.Since(t0).Nanoseconds()) / iters
			st := c.MatchStats()
			if st.UnexpectedDepth != k {
				panic(fmt.Sprintf("msgmatch: UQ depth %d, want %d", st.UnexpectedDepth, k))
			}
			p.Barrier()
			// Drain so teardown leaves no unexpected traffic behind.
			buf := make([]byte, 1)
			for i := 0; i < k; i++ {
				c.Recv(buf, 1, 7)
			}
		} else {
			p.Barrier()
			for i := 0; i < k; i++ {
				c.Send(0, 7, []byte{1}) // tag 7: never probed
			}
			p.Barrier()
		}
	})
	if err != nil {
		panic(err)
	}
	return perOp
}
