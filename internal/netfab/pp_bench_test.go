//go:build linux

package netfab

// Benchmark scaffolding for the rx path: a two-mesh ping-pong over real
// localhost TCP, sized to expose the poller's per-hop and per-chunk costs.

import (
	"testing"

	"repro/internal/wire"
)

func benchPingPong(b *testing.B, size int) {
	meshes := tcpMeshes(b, 2)
	defer func() {
		b.StopTimer() // teardown is not a round trip
		closeAll(meshes)
	}()

	got := [2]chan struct{}{make(chan struct{}, 1), make(chan struct{}, 1)}
	for r := 0; r < 2; r++ {
		m := meshes[r]
		m.Start(func(from int, fr *wire.Frame) {
			got[m.Self()] <- struct{}{}
		}, func(rank int, err error) {})
	}

	payload := make([]byte, size)
	fr := &wire.Frame{Kind: wire.KindPut, Origin: 0, Target: 1, Operand: uint64(size), Data: payload}
	b.SetBytes(int64(2 * size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr.Origin, fr.Target = 0, 1
		if err := meshes[0].Send(1, fr); err != nil {
			b.Fatal(err)
		}
		<-got[1]
		fr.Origin, fr.Target = 1, 0
		if err := meshes[1].Send(0, fr); err != nil {
			b.Fatal(err)
		}
		<-got[0]
	}
}

func BenchmarkPingPong8(b *testing.B)    { benchPingPong(b, 8) }
func BenchmarkPingPong256K(b *testing.B) { benchPingPong(b, 262144) }
