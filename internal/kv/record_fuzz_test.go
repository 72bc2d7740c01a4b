package kv

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/fompi"
)

// record encodes ops (kind, key, value) as a client would, with count and
// body length as given.
func record(count int, ops ...[3][]byte) []byte {
	rec := make([]byte, recHdr)
	rec[0] = byte(count)
	for _, op := range ops {
		rec = append(rec, op[0][0], byte(len(op[1])))
		rec = binary.LittleEndian.AppendUint16(rec, uint16(len(op[2])))
		rec = append(append(rec, op[1]...), op[2]...)
	}
	binary.LittleEndian.PutUint16(rec[2:4], uint16(len(rec)-recHdr))
	return rec
}

// FuzzKVRecord feeds arbitrary bytes to the record decoder, the one
// peer-fed parser of the KV service: walkRecord must never panic, nor
// hand an op a key or value that would not fit a slot; and applying the
// record to a live store (applyRecord, the AM handler's body) must not
// panic either, and must count exactly the bad entries walkRecord counts.
func FuzzKVRecord(f *testing.F) {
	put := func(k, v string) [3][]byte { return [3][]byte{{opPut}, []byte(k), []byte(v)} }
	del := func(k string) [3][]byte { return [3][]byte{{opDel}, []byte(k), nil} }
	f.Add(record(2, put("alpha", "one"), del("beta")))
	f.Add(record(3, put("k", "v"), [3][]byte{{9}, []byte("x"), nil}, put("k", "w")))
	f.Add(record(1, put("key", string(make([]byte, 200)))))
	f.Add(record(1, put(string(make([]byte, 200)), "v")))
	f.Add(record(4, put("a", "b")))
	f.Add([]byte{1, 0, 0xff, 0xff})
	f.Add([]byte{})

	const slotBytes = 64
	f.Fuzz(func(t *testing.T, rec []byte) {
		batch, bad := walkRecord(rec, slotBytes, func(kind byte, key, val []byte) {
			if kind == opPut && slotHdr+len(key)+len(val) > slotBytes {
				t.Fatalf("put of a %d B key and %d B value reached a %d B slot", len(key), len(val), slotBytes)
			}
		})
		err := fompi.Run(fompi.Options{Ranks: 1}, func(p *fompi.Proc) {
			s := Open(p, Options{Buckets: 2, SlotsPerBucket: 2, SlotBytes: slotBytes, LaneSlots: 1})
			defer s.Close()
			// Twice: a second pass matches the keys the first one stored.
			for pass := 1; pass <= 2; pass++ {
				if got := s.applyRecord(rec); got != batch {
					panic(fmt.Sprintf("pass %d: applyRecord says batch %v, walkRecord %v", pass, got, batch))
				}
				if s.srvBadRecord != uint64(pass*bad) {
					panic(fmt.Sprintf("pass %d: applyRecord counted %d bad entries, walkRecord %d per pass", pass, s.srvBadRecord, bad))
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}
