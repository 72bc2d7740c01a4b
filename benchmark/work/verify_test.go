package work

import (
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
)

// The same seed gives the same op sequence; another seed, rank or phase
// gives another.
func TestKVScheduleIsSeeded(t *testing.T) {
	a := kvSchedule(7, 0, 1, kvKeysPerRank, 1000)
	if !reflect.DeepEqual(a, kvSchedule(7, 0, 1, kvKeysPerRank, 1000)) {
		t.Fatal("same seed, different schedule")
	}
	for name, b := range map[string][]kvOp{
		"seed":  kvSchedule(8, 0, 1, kvKeysPerRank, 1000),
		"rank":  kvSchedule(7, 1, 1, kvKeysPerRank, 1000),
		"phase": kvSchedule(7, 0, 2, kvKeysPerRank, 1000),
	} {
		if reflect.DeepEqual(a, b) {
			t.Errorf("changing the %s did not change the schedule", name)
		}
	}
	reads := 0
	for _, op := range a {
		if int(op.Key) >= kvKeysPerRank {
			t.Fatalf("key %d out of range", op.Key)
		}
		if op.Read {
			reads++
		}
	}
	if reads < 700 || reads > 900 {
		t.Errorf("%d reads of 1000, want about %d%%", reads, kvReadPct)
	}
	if string(kvKeyName(7, 0, 3)) == string(kvKeyName(7, 1, 3)) {
		t.Error("the two ranks share a key name: a key would have two writers")
	}
}

func TestCheckSeqCatchesAWrongSequence(t *testing.T) {
	win := make([]byte, 8)
	binary.LittleEndian.PutUint64(win, 41)
	if err := checkSeq(win, 41); err != nil {
		t.Errorf("intact window rejected: %v", err)
	}
	if err := checkSeq(win, 42); err == nil {
		t.Error("a window still holding round 41 passed as round 42")
	}
}

func TestCheckBulkCatchesCorruptionAndTheWrongBuffer(t *testing.T) {
	buf := make([]byte, 4096)
	fillBulk(buf, 1, 0)
	if err := checkBulk(buf, 1, 0); err != nil {
		t.Errorf("intact buffer rejected: %v", err)
	}
	if checkBulk(buf, 1, 1) == nil || checkBulk(buf, 0, 0) == nil {
		t.Error("a buffer passed as another slot's or parity's")
	}
	buf[3000] ^= 0x40
	if err := checkBulk(buf, 1, 0); err == nil {
		t.Error("a flipped bit in the bulk window was not caught")
	}
}

func TestCheckStreamCatchesCorruption(t *testing.T) {
	win := make([]byte, streamSize)
	fillStream(win, 1, 99)
	if err := checkStream(win, 1, 99); err != nil {
		t.Errorf("intact window rejected: %v", err)
	}
	if checkStream(win, 1, 98) == nil {
		t.Error("a window holding the wrong put passed")
	}
	if checkStream(win, 0, 99) == nil {
		t.Error("the other rank's payload passed")
	}
	win[streamSize-1]++
	if checkStream(win, 1, 99) == nil {
		t.Error("a corrupted last byte was not caught")
	}
}

func TestCheckKVValueCatchesStaleFutureForeignAndTornValues(t *testing.T) {
	val := make([]byte, kvValSize)
	kvValue(val, 5, 10)
	if err := checkKVValue(val, 5, 8, 12); err != nil {
		t.Errorf("version 10 within [8, 12] rejected: %v", err)
	}
	if err := checkKVValue(val, 5, 10, 10); err != nil {
		t.Errorf("exact version rejected: %v", err)
	}
	for name, c := range map[string]struct {
		key    int
		lo, hi uint64
		want   string
	}{
		"stale: an acked write was lost":     {5, 11, 12, "outside"},
		"future: a write nobody issued":      {5, 1, 9, "outside"},
		"another key's value in this bucket": {6, 8, 12, "belongs to key 5"},
	} {
		err := checkKVValue(val, c.key, c.lo, c.hi)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", name, err, c.want)
		}
	}
	val[40] ^= 1
	if err := checkKVValue(val, 5, 8, 12); err == nil || !strings.Contains(err.Error(), "torn") {
		t.Errorf("torn value: got %v", err)
	}
	if checkKVValue(val[:10], 5, 8, 12) == nil {
		t.Error("a short value passed")
	}
}
