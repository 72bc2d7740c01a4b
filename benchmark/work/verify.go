package work

import (
	"encoding/binary"
	"fmt"
	"math/rand"
)

// This file holds the generators and verifiers: pure functions of the seed
// and of bytes the program produced, so each verifier has a test proving it
// catches a corrupted payload or version.

// checkSeq verifies that the window's first 8 bytes carry seq.
func checkSeq(window []byte, seq uint64) error {
	if got := binary.LittleEndian.Uint64(window); got != seq {
		return fmt.Errorf("window carries sequence %d, want %d", got, seq)
	}
	return nil
}

// fillBulk writes the pattern of (slot, parity) into buf: 8-byte words
// mixing the word index with the buffer's identity.
func fillBulk(buf []byte, slot, parity int) {
	id := uint64(slot)<<1 | uint64(parity)
	for i := 0; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], (uint64(i)+1)*0x9E3779B97F4A7C15^id<<56)
	}
}

// checkBulk verifies buf against the pattern of (slot, parity).
func checkBulk(buf []byte, slot, parity int) error {
	id := uint64(slot)<<1 | uint64(parity)
	for i := 0; i+8 <= len(buf); i += 8 {
		want := (uint64(i)+1)*0x9E3779B97F4A7C15 ^ id<<56
		if got := binary.LittleEndian.Uint64(buf[i:]); got != want {
			return fmt.Errorf("byte %d: word %#x, want %#x (buffer %d/%d)", i, got, want, slot, parity)
		}
	}
	return nil
}

// fillStream writes rank's stream payload: a sequence number in the first
// 8 bytes, then a fixed per-rank byte pattern.
func fillStream(buf []byte, rank int, seq uint64) {
	binary.LittleEndian.PutUint64(buf, seq)
	for i := 8; i < len(buf); i++ {
		buf[i] = byte(rank*131 + i)
	}
}

// checkStream verifies a window against the payload rank sent with seq.
func checkStream(window []byte, rank int, seq uint64) error {
	if err := checkSeq(window, seq); err != nil {
		return err
	}
	for i := 8; i < len(window); i++ {
		if window[i] != byte(rank*131+i) {
			return fmt.Errorf("byte %d: %#x, want %#x", i, window[i], byte(rank*131+i))
		}
	}
	return nil
}

const (
	kvValSize = 64
	kvReadPct = 80
)

// kvOp is one generated KV operation on the rank's key index Key.
type kvOp struct {
	Key  uint16
	Read bool
}

// kvSchedule draws the op sequence of one phase: keys uniform over nkeys,
// kvReadPct percent reads. The same (seed, rank, phase) gives the same
// sequence; the program only ever sees these generated inputs.
func kvSchedule(seed int64, rank, phase, nkeys, ops int) []kvOp {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(rank)*101 + int64(phase)))
	out := make([]kvOp, ops)
	for i := range out {
		out[i] = kvOp{Key: uint16(rng.Intn(nkeys)), Read: rng.Intn(100) < kvReadPct}
	}
	return out
}

// kvKeyName names candidate key number n of rank's key space.
func kvKeyName(seed int64, rank, n int) []byte {
	return []byte(fmt.Sprintf("s%d-r%d-key-%05d", seed, rank, n))
}

// kvValue fills val with version ver of key: the version, the key index,
// and a pattern derived from both, so a torn or misplaced value is caught.
func kvValue(val []byte, key int, ver uint64) {
	binary.LittleEndian.PutUint64(val, ver)
	binary.LittleEndian.PutUint64(val[8:], uint64(key))
	for i := 16; i < len(val); i++ {
		val[i] = byte(ver*131 + uint64(key)*31 + uint64(i))
	}
}

// checkKVValue verifies a value read for key: intact, belonging to key,
// and of a version between lo (the last version acked when the get was
// issued) and hi (the last version issued when it completed). Each key has
// a single writer and versions only grow, so anything outside is a lost,
// stale or invented write.
func checkKVValue(val []byte, key int, lo, hi uint64) error {
	if len(val) != kvValSize {
		return fmt.Errorf("key %d: value of %d bytes, want %d", key, len(val), kvValSize)
	}
	ver := binary.LittleEndian.Uint64(val)
	if k := binary.LittleEndian.Uint64(val[8:]); k != uint64(key) {
		return fmt.Errorf("key %d: value belongs to key %d", key, k)
	}
	if ver < lo || ver > hi {
		return fmt.Errorf("key %d: version %d outside [%d acked, %d issued]", key, ver, lo, hi)
	}
	for i := 16; i < len(val); i++ {
		if val[i] != byte(ver*131+uint64(key)*31+uint64(i)) {
			return fmt.Errorf("key %d version %d: byte %d torn", key, ver, i)
		}
	}
	return nil
}
