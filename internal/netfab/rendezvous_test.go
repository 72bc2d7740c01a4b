package netfab

import (
	"net"
	"testing"

	"repro/internal/wire"
)

// FuzzBootstrapFrame feeds arbitrary bytes through the decoder into
// checkRendezvous for every kind bootstrap expects, at an arbitrary rank
// of an arbitrary job size. It must never panic, and a frame it accepts
// must be one bootstrap can index without bounds checks of its own.
func FuzzBootstrapFrame(f *testing.F) {
	hello := wire.Frame{Kind: wire.KindHello, Origin: 2, Operand: 3, Compare: wire.Version, Strs: []string{"127.0.0.1:4000"}}
	rejoin := hello
	rejoin.Kind, rejoin.Gen = wire.KindRejoin, 7
	for _, fr := range []wire.Frame{
		hello, rejoin,
		{Kind: wire.KindRoster, Operand: 1, Strs: []string{"a:1", "b:2", "c:3"}},
		{Kind: wire.KindReady, Origin: 1},
		{Kind: wire.KindGo},
		{Kind: wire.KindPut, Origin: 1, Data: []byte("not a rendezvous frame")},
	} {
		f.Add(wire.Append(nil, &fr), uint8(0), uint8(3))
	}
	f.Add([]byte{}, uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, b []byte, self, n uint8) {
		var fr wire.Frame
		if wire.Decode(b, &fr) != nil {
			return
		}
		job := 1 + int(n)%64
		rank := int(self) % job
		for _, want := range []wire.Kind{wire.KindHello, wire.KindRoster, wire.KindReady, wire.KindGo} {
			if checkRendezvous(&fr, want, rank, job) != nil {
				continue
			}
			switch want {
			case wire.KindHello, wire.KindReady:
				if fr.Origin <= rank || fr.Origin >= job {
					t.Fatalf("accepted a %s from rank %d at rank %d of %d", fr.Kind, fr.Origin, rank, job)
				}
			default:
				if fr.Origin != 0 {
					t.Fatalf("accepted a %s from rank %d, not the root", fr.Kind, fr.Origin)
				}
			}
			switch want {
			case wire.KindHello:
				if len(fr.Strs) != 1 || fr.Operand != uint64(job) {
					t.Fatalf("accepted a hello with %d addrs for a job of %d", len(fr.Strs), fr.Operand)
				}
				if _, _, err := net.SplitHostPort(fr.Strs[0]); err != nil {
					t.Fatalf("accepted a hello advertising %q: %v", fr.Strs[0], err)
				}
			case wire.KindRoster:
				if len(fr.Strs) != job || int(fr.Operand) < 0 {
					t.Fatalf("accepted a roster of %d addrs, generation %d, for %d ranks", len(fr.Strs), fr.Operand, job)
				}
			}
		}
	})
}
