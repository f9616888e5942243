// Package service turns the diagnosis engine table into a
// long-running concurrent server: a SessionPool keeps cnf.DiagSession
// instances warm per circuit fingerprint, a Scheduler bounds and
// queues request execution, and Server exposes the JSON-over-HTTP
// surface (POST /diagnose, POST /sessions/{id}/tests, GET /healthz,
// GET /metrics) that cmd/diagserver serves and cmd/diagload drives.
//
// The subsystem exists because of the paper's central result: the
// simulation-based and SAT-based procedures compute the same solution
// sets, so the expensive SAT artifacts — encodings, learnt clauses,
// session state — are reusable assets. Keeping them warm across
// requests amortizes the Table 1/2 construction cost, and the
// incremental path (add/retract tests on a live session) makes repeat
// diagnosis of an edited test-set measurably cheaper than cold-start.
package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"strings"

	"repro/internal/circuit"
)

// Fingerprint hashes the structural identity of a circuit: gate kinds,
// fanin wiring, truth tables, and the input/output interface. Two
// circuits with equal fingerprints encode to identical CNF (up to
// variable numbering), so the fingerprint — not the client-supplied
// name — keys the session pool. Every per-request knob is
// assumption-scoped on a live session (candidate restriction, k-limits
// up to the ladder width, test activation), so requests on one circuit
// share one warm session.
func Fingerprint(c *circuit.Circuit) string {
	h := sha256.New()
	writeInt(h, len(c.Gates))
	for i := range c.Gates {
		g := &c.Gates[i]
		writeInt(h, int(g.Kind))
		writeInt(h, len(g.Fanin))
		for _, f := range g.Fanin {
			writeInt(h, f)
		}
		if g.Table != nil {
			writeInt(h, g.Table.N)
			for _, w := range g.Table.Bits {
				writeUint64(h, w)
			}
		}
	}
	writeInt(h, len(c.Inputs))
	for _, in := range c.Inputs {
		writeInt(h, in)
	}
	writeInt(h, len(c.Outputs))
	for _, o := range c.Outputs {
		writeInt(h, o)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// canonicalKey maps a journaled session key to the fingerprint. Keys
// written while the encoding had fault-model knobs carry a
// "/enc=…,fz=…[,cone=…]" suffix; every setting has the same solution
// space, so those sessions are interchangeable with the knob-free one.
func canonicalKey(key string) string {
	fp, _, _ := strings.Cut(key, "/")
	return fp
}

// testKey canonicalizes one failing test for the per-session dedup
// index, so re-sent tests reuse their already-encoded copies.
func testKey(t circuit.Test) string {
	h := sha256.New()
	writeInt(h, t.Output)
	if t.Want {
		writeInt(h, 1)
	} else {
		writeInt(h, 0)
	}
	writeInt(h, len(t.Vector))
	var w uint64
	n := 0
	for _, b := range t.Vector {
		w <<= 1
		if b {
			w |= 1
		}
		if n++; n == 64 {
			writeUint64(h, w)
			w, n = 0, 0
		}
	}
	if n > 0 {
		writeUint64(h, w)
	}
	return string(h.Sum(nil)[:16])
}

func writeInt(h hash.Hash, v int) { writeUint64(h, uint64(int64(v))) }

func writeUint64(h hash.Hash, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	h.Write(buf[:])
}
