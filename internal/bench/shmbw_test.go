package bench

import "testing"

// BenchmarkShmBWBulk drives the shmbw storm on the segment-ring cluster
// at the bulk payload size — the profiling target for the transport's
// per-entry costs.
func BenchmarkShmBWBulk(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bwRun(4096, 2000, 100, 32, shmBWRunner)
		b.ReportMetric(r.mbps, "MB/s")
	}
}

// TestShmBWWithinFactor is the acceptance gate for the shared-memory
// transport: aggregate notified-put bandwidth over the segment ring must
// stay within 2x of the in-process Real engine. The structural floor is
// exactly 2x at memory-bound sizes — shm moves every payload twice (user
// buffer into the bulk region, bulk region into the window) where the
// in-process engine's zero-copy path moves it once — and measured runs
// hover right at it (1.9-2.1x), so the hard CI bound adds headroom for
// single-core scheduler noise on top of the floor. The bulk size carries
// the gate, the inline size is held to a looser bound.
//
// A round takes best-of-3 of each engine, the runs interleaved so a burst
// of load lands on both. Packages testing alongside in a full `go test
// ./...` can starve the spinning shm poller for a whole round, so a size
// fails only when each of three rounds misses its factor.
func TestShmBWWithinFactor(t *testing.T) {
	if testing.Short() {
		t.Skip("bandwidth comparison needs wall-clock headroom")
	}
	const iters, warmup, flushEvery, rounds = 2000, 200, 32, 3
	for _, tc := range []struct {
		size   int
		factor float64
	}{{32, 3.0}, {4096, 2.5}} {
		for round := 1; ; round++ {
			real, shm := 0.0, 0.0
			for i := 0; i < 3; i++ {
				real = max(real, bwRun(tc.size, iters, warmup, flushEvery, realBWRunner).mbps)
				shm = max(shm, bwRun(tc.size, iters, warmup, flushEvery, shmBWRunner).mbps)
			}
			t.Logf("size %d round %d: real %.1f MB/s, shm %.1f MB/s (%.2fx)", tc.size, round, real, shm, real/shm)
			if shm*tc.factor >= real {
				break
			}
			if round == rounds {
				t.Errorf("size %d: shm %.1f MB/s more than %.1fx below real %.1f MB/s in all %d rounds",
					tc.size, shm, tc.factor, real, rounds)
				break
			}
		}
	}
}

// TestShmBWRatioSweep is a diagnostic (not a gate): log the real/shm
// ratio across payload sizes to see where per-entry overhead stops
// dominating. Run with -run TestShmBWRatioSweep -v.
func TestShmBWRatioSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic sweep")
	}
	for _, size := range []int{32, 1024, 4096, 16384, 32768} {
		real := bwRun(size, 1000, 100, 32, realBWRunner)
		shm := bwRun(size, 1000, 100, 32, shmBWRunner)
		t.Logf("size %5d: real %8.1f MB/s, shm %8.1f MB/s (%.2fx), stalls %d",
			size, real.mbps, shm.mbps, real.mbps/shm.mbps, shm.stalls)
	}
}
