package netfab

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/wire"
)

// readFrame reads one length-prefixed frame directly off a connection.
// Bootstrap uses it before reader goroutines exist; the returned frame owns
// its memory (nothing aliases a reused buffer).
func readFrame(conn net.Conn, deadline time.Time) (*wire.Frame, error) {
	conn.SetReadDeadline(deadline)
	defer conn.SetReadDeadline(time.Time{})
	var lenBuf [4]byte
	if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(lenBuf[:]))
	if n == 0 || n > wire.MaxFrame {
		return nil, fmt.Errorf("netfab: bad frame length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(conn, buf); err != nil {
		return nil, err
	}
	fr := new(wire.Frame)
	if err := wire.Decode(buf, fr); err != nil {
		return nil, err
	}
	return fr, nil
}

// Loopback builds n fully meshed Meshes inside one process over localhost
// TCP, each pair connected directly, skipping the rendezvous. It exists
// for unit tests of the framing, goodbye, and failure-classification
// logic; full-stack in-process clusters bootstrap through
// runtime.RunLocalCluster.
func Loopback(n int) ([]*Mesh, error) {
	meshes := make([]*Mesh, 0, n)
	fail := func(err error) ([]*Mesh, error) {
		for _, m := range meshes {
			m.abruptClose()
		}
		return nil, err
	}
	for i := 0; i < n; i++ {
		m, err := newMesh((&Config{Self: i, N: n}).withDefaults())
		if err != nil {
			return fail(err)
		}
		meshes = append(meshes, m)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	defer ln.Close()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				return fail(err)
			}
			b, err := ln.Accept()
			if err != nil {
				a.Close()
				return fail(err)
			}
			meshes[i].peers[j] = newPeer(j, a)
			meshes[j].peers[i] = newPeer(i, b)
		}
	}
	for _, m := range meshes {
		if err := m.register(); err != nil {
			return fail(err)
		}
	}
	return meshes, nil
}
