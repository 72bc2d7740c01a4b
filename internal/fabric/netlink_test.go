package fabric

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/netfab"
	"repro/internal/wire"
)

// TestUndecodablePayloadFailsPeer sends a control message whose payload
// header is not gob through a loopback mesh. No layer above the link will
// ever send it again, so dropping it would park its waiter forever: the
// fabric must convict the sender instead, and the rank waiting for that
// message class must unwind with a typed ErrPeerFailed.
func TestUndecodablePayloadFailsPeer(t *testing.T) {
	const class = 3
	meshes := netfab.Loopback(2)
	defer meshes[0].Close(false)
	defer meshes[1].Close(false)
	env := exec.NewDistEnv(0, 2)
	f := NewDistributed(env, DefaultConfig(2), meshes[0])
	defer f.Close()
	meshes[1].Start(func(int, *wire.Frame) {}, func(int, error) {})

	done := make(chan error, 1)
	go func() {
		done <- env.Run(2, func(p *exec.Proc) { f.NIC(0).WaitMsgClass(p, class) })
	}()
	garbage := &wire.Frame{Kind: wire.KindCtrl, Origin: 1, Target: 0, MsgClass: class,
		Payload: []byte("not gob")}
	if err := meshes[1].Send(0, garbage); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrPeerFailed) || !strings.Contains(err.Error(), "undecodable payload") {
			t.Fatalf("waiter unwound with %v, want ErrPeerFailed naming the undecodable payload", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter still parked: the undecodable message was dropped silently")
	}
}
