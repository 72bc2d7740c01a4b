package runtime

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/exec"
	"repro/internal/fabric"
)

// TestMsgHeaderWordsOnEveryEngine posts the header each layer's message
// classes carry (plus the extreme words) from rank 0 to rank 1 and reads
// the three words back unchanged: by value through memory on Sim and Real,
// through a frame's fixed fields over TCP and through the segment rings on
// shm.
func TestMsgHeaderWordsOnEveryEngine(t *testing.T) {
	cases := []struct {
		name  string
		class int
		hdr   fabric.MsgHdr
		data  []byte
	}{
		// The barrier's own class would race the finalize barrier of the
		// cluster launchers; its one-word shape rides a free class.
		{"barrier {phase}", ClassUser, fabric.MsgHdr{1}, nil},
		{"pscw post {winID}", ClassRMAPost, fabric.MsgHdr{3}, nil},
		{"pscw complete {winID}", ClassRMAComplete, fabric.MsgHdr{3}, nil},
		{"fence {winID, epoch, round}", ClassRMAFence, fabric.MsgHdr{2, 41, 5}, nil},
		{"mp eager {tag, 0, count}", ClassMPEager, fabric.MsgHdr{7, 0, 5}, []byte("eager")},
		{"mp rts {tag, sendID, count}", ClassMPRTS, fabric.MsgHdr{-7, 12, 1 << 20}, nil},
		{"mp cts {sendID, recvID}", ClassMPCTS, fabric.MsgHdr{12, 9}, nil},
		{"mp data {tag, recvID}", ClassMPData, fabric.MsgHdr{-7, 9}, bytes.Repeat([]byte{0xab}, 4096)},
		{"extremes", ClassUser + 1, fabric.MsgHdr{-1, 1 << 62, 0}, nil},
		{"all negative", ClassUser + 2, fabric.MsgHdr{-1 << 63, -2, -3}, []byte{1}},
	}
	body := func(p *Proc) {
		if p.Rank() == 0 {
			for _, c := range cases {
				p.NIC().PostMsg(p.Proc, 1, c.class, c.hdr, c.data, len(c.data) > 0)
			}
			return
		}
		for _, c := range cases {
			m := p.NIC().WaitMsgClass(p.Proc, c.class)
			if m.Origin != 0 || m.Class != c.class || m.Hdr != c.hdr ||
				!bytes.Equal(m.Data, c.data) || m.ChargeCopy != (len(c.data) > 0) {
				t.Errorf("%s: got origin %d class %d hdr %v (%d data bytes, chargeCopy %v), want class %d hdr %v (%d bytes)",
					c.name, m.Origin, m.Class, m.Hdr, len(m.Data), m.ChargeCopy, c.class, c.hdr, len(c.data))
			}
		}
	}
	one := func(err error) []error { return []error{err} }
	engines := []struct {
		name string
		run  func() []error
	}{
		{"sim", func() []error { return one(Run(Options{Ranks: 2, Mode: exec.Sim}, body)) }},
		{"real", func() []error { return one(Run(Options{Ranks: 2, Mode: exec.Real}, body)) }},
		{"tcp", func() []error { return RunLocalCluster(Options{Ranks: 2}, body) }},
		{"shm", func() []error { return RunLocalShmCluster(Options{Ranks: 2}, body) }},
	}
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			if err := errors.Join(e.run()...); err != nil {
				t.Fatal(err)
			}
		})
	}
}
