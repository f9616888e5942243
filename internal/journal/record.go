package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
)

// Record types of the session lifecycle journal, in the vocabulary of
// the warm-session pool: a session is built (cold build or ladder
// rebuild), its live test-set is replaced after every run, and it is
// evicted. Seal marks a clean shutdown — a log ending in a seal needs no
// torn-tail repair on the next boot. The writer emits tests-added only
// as a full reset; delta tests-added and tests-retracted records are
// still folded so logs written by older servers replay.
const (
	TypeSessionBuilt   = "session-built"
	TypeTestsAdded     = "tests-added"
	TypeTestsRetracted = "tests-retracted"
	TypeSessionEvicted = "session-evicted"
	TypeSeal           = "seal"
)

// TestRec is one journaled test triple, in the wire encoding the
// service already uses (vector as a 0/1 string, one character per
// primary input).
type TestRec struct {
	Vector string `json:"v"`
	Output int    `json:"o"`
	Want   bool   `json:"w"`
}

// Record is one journal entry. The zero fields of types that do not use
// them are omitted on disk; Key identifies the session for everything
// but the seal.
type Record struct {
	Type string `json:"type"`
	Key  string `json:"key,omitempty"`

	// session-built payload: everything needed to rebuild the warm
	// session from nothing — the circuit as self-contained .bench text
	// (independent of any generator suite drift), its fingerprint for
	// verification, and the ladder width. Logs written while the
	// encoding had knobs also carry "encoding"/"forceZero" fields; the
	// decoder ignores them.
	Fingerprint string `json:"fp,omitempty"`
	Bench       string `json:"bench,omitempty"`
	MaxK        int    `json:"maxK,omitempty"`

	// tests-added payload. Reset replaces the live test-set (every
	// record the writer emits); otherwise the tests append to it (the
	// incremental-edit deltas of older logs). K remembers the run's
	// ladder bound so a replayed session restores sane incremental
	// defaults.
	Reset bool      `json:"reset,omitempty"`
	Tests []TestRec `json:"tests,omitempty"`
	K     int       `json:"k,omitempty"`

	// tests-retracted payload (older logs only): positions in the live
	// test-set at the time of the edit, exactly as the incremental
	// endpoint names them.
	Removed []int `json:"removed,omitempty"`
}

// Frame layout: magic "JWAL" | payload length (uint32 LE) | CRC-32C of
// the payload (uint32 LE) | JSON payload. The magic makes resync after
// a corrupt record possible: the reader scans forward for the next
// "JWAL" and re-validates from there instead of refusing to boot.
var frameMagic = []byte("JWAL")

const (
	frameHeaderSize = 12
	// maxRecordBytes bounds a single record (the largest payloads are
	// .bench netlists, which the HTTP layer already caps at 64 MiB). A
	// decoded length beyond it is treated as corruption, never as an
	// allocation request.
	maxRecordBytes = 128 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendFrame encodes one record as a frame onto dst.
func appendFrame(dst []byte, rec *Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return dst, err
	}
	var hdr [frameHeaderSize]byte
	copy(hdr[0:4], frameMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[8:12], crc32.Checksum(payload, crcTable))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...), nil
}

// DecodeResult reports what a segment scan found. ValidEnd is the
// offset just past the last intact record — the truncation point for
// torn-tail repair. Skipped counts corrupt stretches that were jumped
// over (resynced past), TornTail marks trailing bytes that never
// resolved into another record, and Sealed reports that the data ends
// exactly at a clean seal record.
type DecodeResult struct {
	Records  int
	Skipped  int
	ValidEnd int64
	TornTail bool
	Sealed   bool
}

// DecodeAll scans one segment's bytes, invoking fn for every intact
// record in order. It never panics and never allocates beyond the
// input: payloads are decoded from subslices, a declared length larger
// than the remaining data is corruption, not an allocation. fn may be
// nil (pure verification).
func DecodeAll(data []byte, fn func(Record)) DecodeResult {
	var res DecodeResult
	off := 0
	for off < len(data) {
		idx := bytes.Index(data[off:], frameMagic)
		if idx < 0 {
			break // no further frame start; the rest is tail garbage
		}
		at := off + idx
		rec, end, ok := decodeFrameAt(data, at)
		if !ok {
			// Not a valid frame at this magic (bad length, CRC or JSON):
			// resync one byte past it and keep hunting.
			off = at + 1
			continue
		}
		if int64(at) > res.ValidEnd {
			// A valid record beyond a bad stretch: the gap was corrupt,
			// but the log continues — count and carry on.
			res.Skipped++
		}
		if fn != nil {
			fn(rec)
		}
		res.Records++
		res.Sealed = rec.Type == TypeSeal
		off = end
		res.ValidEnd = int64(end)
	}
	if res.ValidEnd < int64(len(data)) {
		res.TornTail = true
		res.Sealed = false
	}
	return res
}

// decodeFrameAt validates and decodes the frame starting at data[at].
func decodeFrameAt(data []byte, at int) (Record, int, bool) {
	var rec Record
	if at+frameHeaderSize > len(data) {
		return rec, 0, false
	}
	n := int(binary.LittleEndian.Uint32(data[at+4 : at+8]))
	if n > maxRecordBytes || at+frameHeaderSize+n > len(data) {
		return rec, 0, false
	}
	payload := data[at+frameHeaderSize : at+frameHeaderSize+n]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(data[at+8:at+12]) {
		return rec, 0, false
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, 0, false
	}
	return rec, at + frameHeaderSize + n, true
}
