//go:build !linux

package netfab

// No kernel poller on this platform: newPoller reports none and every
// stream takes a fallback reader goroutine driving the state machine in
// rx.go — same behavior (no placed reads), O(P) idle goroutines, and no rounds for a
// waiting rank to drive (Progress reports false). Nor a nonblocking
// write: the readers' flushes hand every queue to the writer goroutine.

import (
	"net"
	"time"
)

type poller struct{}

func newPoller() *poller            { return nil }
func (pl *poller) add(p *peer) bool { return false }
func (pl *poller) count() int       { return 0 }
func (pl *poller) launch(m *Mesh)   {}
func (pl *poller) stop(m *Mesh)     {}

func (m *Mesh) round(pl *poller, now time.Time, flush, waiter bool) (int, uint64, bool) {
	return 0, 0, false
}

// placer is never made here: every stream is a fallback stream.
type placer struct{}

func (m *Mesh) offer(s *rxStream, n int, head []byte) (int, bool, error) { return 0, false, nil }

type nbWriter struct{}

func (w *nbWriter) init(conn net.Conn)                  {}
func (w *nbWriter) writev(bufs [][]byte) (int64, error) { return 0, nil }
