//go:build !linux

package netfab

// A mesh's streams are driven by epoll (poller_linux.go), which this
// platform lacks: newPoller fails, so Bootstrap and Loopback return its
// error and no mesh exists here. What follows only keeps the package
// compiling.

import (
	"errors"
	"time"
)

type poller struct{}

func newPoller() (*poller, error) {
	return nil, errors.New("netfab: TCP meshes need Linux (epoll)")
}

func (pl *poller) add(p *peer) error         { return nil }
func (pl *poller) launch(m *Mesh)            {}
func (pl *poller) wake()                     {}
func (pl *poller) destroy()                  {}
func (pl *poller) watchOut(p *peer, on bool) {}

func (m *Mesh) round(pl *poller, now time.Time, flush, waiter bool) (int, uint64, bool) {
	return 0, 0, false
}

type placer struct{}

func (m *Mesh) offer(s *rxStream, n int, head []byte) (int, bool, error) { return 0, false, nil }

type nbWriter struct{}

func (w *nbWriter) writev(bufs [][]byte) (int64, error) { return 0, nil }
