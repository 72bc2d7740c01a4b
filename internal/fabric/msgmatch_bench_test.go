package fabric

import (
	"fmt"
	grt "runtime"
	"sync"
	"testing"

	"repro/internal/exec"
)

// BenchmarkMsgMatch tracks the message dispatch engine's two load axes:
// a hot-class poll miss with K messages of another class queued (depth),
// and a send-to-self round trip with K waiters parked on K other classes
// (waiters). Both must stay flat in K; the seed's shared predicate-scan
// queue grew linearly on both. The naperf `msgmatch` experiment reports
// the same measurements with the seed comparison.
func BenchmarkMsgMatch(b *testing.B) {
	const (
		hot  = 900
		cold = 901
	)
	for _, k := range []int{1, 64, 256} {
		b.Run(fmt.Sprintf("depth-%d", k), func(b *testing.B) {
			env := exec.New(exec.Real)
			f := New(env, DefaultConfig(1))
			defer f.Close()
			err := env.Run(1, func(p *exec.Proc) {
				nic := f.NIC(0)
				for i := 0; i < k; i++ {
					nic.PostMsg(p, 0, cold, MsgHdr{}, nil, false)
				}
				for nic.MsgDepth() < k {
					grt.Gosched()
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, ok := nic.PollMsgClass(hot); ok {
						b.Error("unexpected hot message")
						return
					}
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		})
		b.Run(fmt.Sprintf("waiters-%d", k), func(b *testing.B) {
			env := exec.New(exec.Real)
			f := New(env, DefaultConfig(1))
			defer f.Close()
			err := env.Run(1, func(p *exec.Proc) {
				nic := f.NIC(0)
				var wg sync.WaitGroup
				for w := 0; w < k; w++ {
					wg.Add(1)
					go func(class int) {
						defer wg.Done()
						nic.WaitMsgClass(p, class)
					}(cold + 1 + w)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					nic.PostMsg(p, 0, hot, MsgHdr{}, nil, false)
					for {
						if _, ok := nic.PollMsgClass(hot); ok {
							break
						}
						grt.Gosched()
					}
				}
				b.StopTimer()
				for w := 0; w < k; w++ {
					nic.PostMsg(p, 0, cold+1+w, MsgHdr{}, nil, false)
				}
				wg.Wait()
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
