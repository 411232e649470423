package durable

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"
)

// FuzzReadFrames holds the journal's frame decoder to its recovery
// contract on arbitrary bytes: it never errors on an in-memory reader,
// its good offset ends exactly the CRC-valid frames it returned, that
// prefix alone decodes to the same history, and every record it returns
// survives frame → readFrames unchanged.
func FuzzReadFrames(f *testing.F) {
	mustFrame := func(rec Record) []byte {
		b, err := frame(rec)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	reg := mustFrame(rec(OpRegister, "t1", "s1", "$A -> int & [1, 60]"))
	del := mustFrame(rec(OpDelete, "t1", "s1", ""))
	two := append(append([]byte{}, reg...), del...)

	f.Add(reg)
	f.Add(del)
	f.Add(two)
	f.Add(append(append([]byte{}, reg...), del[:frameHeader-3]...)) // torn header
	f.Add(append(append([]byte{}, reg...), del[:len(del)-3]...))    // torn payload
	flipped := append([]byte{}, two...)
	flipped[len(reg)+4] ^= 0x10 // one CRC bit of the second frame
	f.Add(flipped)
	huge := make([]byte, frameHeader, frameHeader+4)
	binary.LittleEndian.PutUint32(huge[0:4], maxFrame+1)
	f.Add(append(append([]byte{}, reg...), append(huge, "{}{}"...)...)) // length past maxFrame

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, good, err := readFrames(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("in-memory read errored: %v", err)
		}
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("good offset %d outside [0, %d]", good, len(data))
		}
		// The good prefix is exactly len(recs) whole frames, each with a
		// matching CRC.
		var off int64
		for i := range recs {
			if off+frameHeader > good {
				t.Fatalf("record %d starts past the good offset %d", i, good)
			}
			end := off + frameHeader + int64(binary.LittleEndian.Uint32(data[off:off+4]))
			if end > good {
				t.Fatalf("record %d ends past the good offset %d", i, good)
			}
			if crc32.ChecksumIEEE(data[off+frameHeader:end]) != binary.LittleEndian.Uint32(data[off+4:off+8]) {
				t.Fatalf("record %d came from a frame whose CRC does not match", i)
			}
			off = end
		}
		if off != good {
			t.Fatalf("%d records span %d bytes, but good offset is %d", len(recs), off, good)
		}
		again, againGood, err := readFrames(bytes.NewReader(data[:good]))
		if err != nil || againGood != good || !reflect.DeepEqual(again, recs) {
			t.Fatalf("good prefix decodes differently: %d records at %d (err %v), want %d at %d",
				len(again), againGood, err, len(recs), good)
		}
		for i, r := range recs {
			b, err := frame(r)
			if err != nil {
				t.Fatalf("record %d does not frame: %v", i, err)
			}
			back, n, err := readFrames(bytes.NewReader(b))
			if err != nil || n != int64(len(b)) || len(back) != 1 || back[0] != r {
				t.Fatalf("record %d does not round-trip: %+v -> %+v (offset %d of %d, err %v)", i, r, back, n, len(b), err)
			}
		}
	})
}
