package fault

import "testing"

// TestFaultRankCrashAndHang: crash absorbs both directions, hang only the
// rank's own sends; AfterSends lets the first k packets through.
func TestFaultRankCrashAndHang(t *testing.T) {
	in := NewInjector(Plan{Ranks: []RankFault{{Rank: 2, Mode: Crash, AfterSends: 2}}})
	// Rank 2's first two sends pass, the third is absorbed.
	for i := 0; i < 2; i++ {
		if !in.Admit(2, 0) {
			t.Fatalf("send %d absorbed before AfterSends budget", i)
		}
	}
	if in.Admit(2, 0) {
		t.Fatal("post-crash send admitted")
	}
	// Crashed target absorbs inbound too.
	if in.Admit(0, 2) {
		t.Fatal("inbound to crashed rank admitted")
	}

	in2 := NewInjector(Plan{})
	in2.Hang(1)
	if in2.Admit(1, 0) {
		t.Fatal("hung rank's send admitted")
	}
	if !in2.Admit(0, 1) {
		t.Fatal("inbound to hung rank absorbed; hang should only silence sends")
	}
	if m, ok := in2.Down(1); !ok || m != Hang {
		t.Fatalf("Down(1) = %v,%v", m, ok)
	}
}

// TestFaultZeroPlanIsTransparent: a plan that fails no rank admits
// everything.
func TestFaultZeroPlanIsTransparent(t *testing.T) {
	in := NewInjector(Plan{})
	for i := 0; i < 10000; i++ {
		if !in.Admit(i%4, (i+1)%4) {
			t.Fatalf("zero plan absorbed packet %d", i)
		}
	}
}

// TestDownHookReportsInRankOrder: ranks already down when the hook is
// installed are reported in rank order, whatever order the plan lists them
// in, so a hook that schedules Sim events numbers them identically on
// every run.
func TestDownHookReportsInRankOrder(t *testing.T) {
	for i := 0; i < 20; i++ {
		in := NewInjector(Plan{Ranks: []RankFault{
			{Rank: 7, Mode: Hang}, {Rank: 3, Mode: Crash}, {Rank: 5, Mode: Crash},
			{Rank: 1, Mode: Crash, AfterSends: 4}, // not down yet
		}})
		var got []int
		in.SetDownHook(func(rank int, _ RankMode) { got = append(got, rank) })
		if len(got) != 3 || got[0] != 3 || got[1] != 5 || got[2] != 7 {
			t.Fatalf("down hook reported %v, want [3 5 7]", got)
		}
	}
}
