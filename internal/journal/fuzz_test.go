package journal

import (
	"bytes"
	"testing"
)

// FuzzJournalDecode feeds arbitrary byte streams to the segment decoder.
// The invariants under fuzz: never panic (including through the fold,
// which handles corrupt-but-CRC-valid records), never allocate beyond
// the input (declared lengths are validated against the remaining data
// before use), and always terminate with a consistent
// truncation/corruption verdict.
func FuzzJournalDecode(f *testing.F) {
	clean, _ := appendFrame(nil, &Record{Type: TypeSessionBuilt, Key: "a", Bench: "# b"})
	clean, _ = appendFrame(clean, &Record{Type: TypeTestsAdded, Key: "a", Reset: true,
		Tests: []TestRec{{Vector: "01", Output: 1, Want: true}}})
	sealed, _ := appendFrame(append([]byte(nil), clean...), &Record{Type: TypeSeal})

	f.Add([]byte{})
	f.Add(clean)
	f.Add(sealed)
	f.Add(clean[:len(clean)-3])                         // torn tail
	f.Add(append([]byte("garbage"), clean...))          // leading junk
	f.Add(append(append([]byte{}, clean...), 'J', 'W')) // partial magic tail
	corrupt := append([]byte(nil), sealed...)
	corrupt[len(clean)/2] ^= 0xA5 // flip mid-log, later frames intact
	f.Add(corrupt)
	huge, _ := appendFrame(nil, &Record{Type: TypeTestsRetracted, Key: "x",
		Removed: []int{-1, 0, 1 << 30}})
	f.Add(huge)
	f.Add(bytes.Repeat(frameMagic, 64)) // magic spam, no valid frame

	f.Fuzz(func(t *testing.T, data []byte) {
		fold := newFolder()
		res := DecodeAll(data, fold.apply)
		_ = fold.state()

		if res.ValidEnd < 0 || res.ValidEnd > int64(len(data)) {
			t.Fatalf("ValidEnd %d out of range [0,%d]", res.ValidEnd, len(data))
		}
		if res.TornTail != (res.ValidEnd < int64(len(data))) {
			t.Fatalf("torn-tail verdict inconsistent: TornTail=%v ValidEnd=%d len=%d",
				res.TornTail, res.ValidEnd, len(data))
		}
		if res.Sealed && res.TornTail {
			t.Fatal("a torn log cannot be sealed")
		}
		if res.Records < 0 || res.Skipped < 0 {
			t.Fatalf("negative counters: %+v", res)
		}

		// The valid prefix must re-decode to the same record count with
		// nothing skipped or torn: the verdict names a clean cut point.
		again := DecodeAll(data[:res.ValidEnd], nil)
		if again.Records != res.Records || again.TornTail {
			t.Fatalf("valid prefix not self-consistent: first %+v, again %+v", res, again)
		}
	})
}
