package service

import (
	"encoding/json"
	"testing"
)

// FuzzDiagnoseRequest drives the request-decoding path a hostile client
// controls end to end: JSON unmarshalling, netlist resolution through
// the server's circuit cache, and test validation via DecodeTests. Any input must
// produce either a decoded request or an error — never a panic, which
// the robustness tentpole turned into the hard server-survival
// guarantee.
func FuzzDiagnoseRequest(f *testing.F) {
	seeds := []string{
		`{"circuit":"s298x","tests":[{"vector":"000","output":0,"want":true}]}`,
		`{"bench":"INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n","tests":[{"vector":"1","output":1,"want":false}]}`,
		`{"bench":"INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n","tests":[{"vector":"01","output":1,"want":false}]}`,  // wrong width
		`{"bench":"INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n","tests":[{"vector":"x","output":1,"want":false}]}`,   // bad char
		`{"bench":"INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n","tests":[{"vector":"1","output":-7,"want":true}]}`,   // negative gate
		`{"bench":"INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n","tests":[{"vector":"1","output":9999,"want":true}]}`, // out of range
		`{"bench":"INPUT(a)\nz = AND(a, b)\n","tests":[{"vector":"1","output":0,"want":true}]}`,            // dangling wire
		`{"circuit":"no-such-circuit","tests":[{"vector":"0","output":0,"want":true}]}`,
		`{"tests":[]}`,
		`{"k":-3,"shards":-1,"maxSolutions":-9}`,
		`{"encoding":"bogus","tests":null}`,
		`[1,2,3]`,
		"{\"bench\":\"\x00\"}",
		``,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	circuits := newCircuitCache(DefaultMaxSessions, maxBodyBytes)
	f.Fuzz(func(t *testing.T, data []byte) {
		var req DiagnoseRequest
		if err := json.Unmarshal(data, &req); err != nil {
			return
		}
		res, _, err := circuits.resolve(&req)
		if err != nil {
			return
		}
		// Errors are the expected outcome for garbage; panics are bugs.
		_, _ = DecodeTests(res.circ, req.Tests)
	})
}
