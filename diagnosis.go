// Package diagnosis is the public API of this repository: a Go
// implementation of the circuit-diagnosis procedures analyzed in
//
//	G. Fey, S. Safarpour, A. Veneris, R. Drechsler:
//	"On the Relation Between Simulation-based and SAT-based Diagnosis",
//	DATE 2006.
//
// Given a faulty combinational implementation and a set of failing tests
// (input vector, erroneous output, correct value), the package locates
// candidate gates whose correction rectifies the tests, with three
// engines at different points of the speed/quality trade-off the paper
// maps out:
//
//   - BSIM — path-tracing over sensitized paths; linear time, marks
//     candidate regions, no validity guarantee.
//   - COV — set covering over the path-trace candidate sets; fast, small
//     solutions, still no validity guarantee (Lemma 2).
//   - BSAT — complete SAT-based diagnosis; slower, but every reported
//     correction is valid and essential-only (Lemmas 1 and 3).
//
// Hybrids (Section 6 of the paper) combine the engines: simulation
// results steer the SAT search, or covering solutions are validated and
// repaired by SAT.
//
// The underlying substrates — a gate-level netlist model with .bench
// I/O, a 64-way bit-parallel simulator, a CDCL SAT solver, CNF and
// cardinality encoders, error injection, test generation, a synthetic
// ISCAS89-like benchmark suite and the experiment harness reproducing
// the paper's tables and figures — live in internal/ packages and are
// re-exported here where they are part of the supported surface.
package diagnosis

import (
	"context"
	"fmt"
	"io"
	"os"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/seq"
	"repro/internal/sim"
	"repro/internal/tgen"
)

// Kind identifies a gate function for programmatic circuit construction.
type Kind = logic.Kind

// Gate kinds accepted by Builder.Gate.
const (
	Buf  = logic.Buf
	Not  = logic.Not
	And  = logic.And
	Nand = logic.Nand
	Or   = logic.Or
	Nor  = logic.Nor
	Xor  = logic.Xor
	Xnor = logic.Xnor
)

// Core data types.
type (
	// Circuit is a combinational gate-level netlist in topological order.
	Circuit = circuit.Circuit
	// Builder assembles circuits programmatically.
	Builder = circuit.Builder
	// Test is one diagnosis triple (vector, erroneous output, correct value).
	Test = circuit.Test
	// TestSet is an ordered collection of tests.
	TestSet = circuit.TestSet
	// Correction is a set of candidate gates rectifying the tests.
	Correction = core.Correction
	// SolutionSet is a list of corrections plus completeness information.
	SolutionSet = core.SolutionSet
	// FaultSet records injected error sites.
	FaultSet = faults.FaultSet
	// GenSpec parameterizes the synthetic circuit generator.
	GenSpec = gen.Spec
)

// Diagnosis options and results.
type (
	// PTOptions configures path tracing (Figure 1 of the paper).
	PTOptions = core.PTOptions
	// BSIMResult holds per-test candidate sets and mark counts.
	BSIMResult = core.BSIMResult
	// CovOptions configures set-covering diagnosis (Figure 4).
	CovOptions = core.CovOptions
	// CovResult holds covering solutions (not validity-checked).
	CovResult = core.CovResult
	// BSATOptions configures SAT-based diagnosis (Figure 3).
	BSATOptions = core.BSATOptions
	// BSATResult holds the valid, essential-only corrections.
	BSATResult = core.BSATResult
	// CEGARResult extends BSATResult with the work counts of the
	// implicit hitting set driver (encoded copies, cores, checks).
	CEGARResult = core.CEGARResult
	// RepairResult is the outcome of the COV-seeded hybrid.
	RepairResult = core.RepairResult
	// GateFunction is a reconstructed partial truth table for a repair.
	GateFunction = core.GateFunction
	// InjectOptions configures error injection.
	InjectOptions = faults.Options
	// TestGenOptions configures random test generation.
	TestGenOptions = tgen.Options
	// BSIMQuality / SolutionQuality are the Table 3 statistics.
	BSIMQuality     = metrics.BSIMQuality
	SolutionQuality = metrics.SolutionQuality
)

// Path-trace marking policies.
const (
	MarkFirst  = core.MarkFirst
	MarkRandom = core.MarkRandom
	MarkAll    = core.MarkAll
)

// Error models for injection.
const (
	KindChange      = faults.KindChange
	OutputInversion = faults.OutputInversion
	FunctionChange  = faults.FunctionChange
)

// Unified engine layer: every diagnosis procedure behind one request/
// response pair (see internal/core's engine table).
type (
	// Request is the unified diagnosis request: engine name, circuit,
	// tests, correction-size ladder, shard count and budgets.
	Request = core.Request
	// Report is the unified diagnosis response: the canonical solution
	// set plus timings, instance sizes, solver statistics and per-shard
	// breakdowns.
	Report = core.Report
	// ShardStats is one stage of a sharded run in Report.PerShard: the
	// sequential sample stage (Shard == -1) or one parallel worker.
	ShardStats = cnf.ShardStats
)

// Diagnose runs the requested diagnosis engine — "bsim", "cov", "bsat",
// "cegar" or "hybrid" (default "bsat") — and returns its unified
// report. All engines share the request/response shape, cooperative
// cancellation through ctx, and, for the SAT engines, sharded parallel
// enumeration through Request.Shards: with Shards > 1 the candidate
// select-literals are partitioned into disjoint shards enumerated
// concurrently on cloned solvers, and for complete runs the
// canonically merged result is identical to the monolithic run — the
// same solutions in the same order for any shard count. A budget or
// solution cap truncates sharded and monolithic runs to different
// (both incomplete) prefixes.
//
// The per-procedure entry points (DiagnoseBSIM, DiagnoseCOV,
// DiagnoseBSAT, DiagnoseCEGAR, DiagnoseHybrid) remain for callers that
// want the engine-specific result types.
func Diagnose(ctx context.Context, req Request) (*Report, error) {
	return core.Diagnose(ctx, req)
}

// Engines lists the diagnosis engines, sorted by name.
func Engines() []string { return core.EngineNames() }

// NewBuilder starts a programmatic circuit description.
func NewBuilder(name string) *Builder { return circuit.NewBuilder(name) }

// ParseBench reads an ISCAS .bench netlist; flip-flops are converted to
// pseudo-primary inputs/outputs (full-scan combinational model).
func ParseBench(name string, r io.Reader) (*Circuit, error) {
	return circuit.ParseBench(name, r)
}

// LoadBench reads a .bench netlist from a file.
func LoadBench(path string) (*Circuit, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return circuit.ParseBench(path, f)
}

// WriteBench renders a circuit in .bench format.
func WriteBench(w io.Writer, c *Circuit) error { return circuit.WriteBench(w, c) }

// GenerateCircuit returns a named circuit from the synthetic ISCAS89-like
// suite (see BenchmarkNames).
func GenerateCircuit(name string) (*Circuit, error) { return gen.ByName(name) }

// GenerateCustom builds a synthetic circuit from an explicit spec.
func GenerateCustom(spec GenSpec) (*Circuit, error) { return gen.Generate(spec) }

// BenchmarkNames lists the circuits of the synthetic suite.
func BenchmarkNames() []string { return gen.SuiteNames() }

// Inject returns a copy of golden with opts.Count seeded errors and the
// fault records.
func Inject(golden *Circuit, opts InjectOptions) (*Circuit, *FaultSet, error) {
	return faults.Inject(golden, opts)
}

// MakeTests derives a failing test-set for the golden/faulty pair: fast
// random bit-parallel simulation first, SAT-based distinguishing-vector
// ATPG as fallback for hard-to-hit faults. Returns an error when the
// circuits are equivalent (nothing to diagnose).
func MakeTests(golden, faulty *Circuit, opts TestGenOptions) (TestSet, error) {
	tests, err := tgen.Random(golden, faulty, opts)
	if err == tgen.ErrUndetected {
		tests, err = tgen.ATPG(golden, faulty, tgen.ATPGOptions{Count: opts.Count, PerVector: opts.PerVector})
		if err == tgen.ErrUndetected {
			return nil, fmt.Errorf("diagnosis: circuits are equivalent; no failing test exists")
		}
	}
	return tests, err
}

// VerifyTests checks the test-set invariant (each test fails on faulty,
// Want matches golden); it returns the first violating index or -1.
func VerifyTests(golden, faulty *Circuit, tests TestSet) int {
	return tgen.Verify(golden, faulty, tests)
}

// DiagnoseBSIM runs BasicSimDiagnose: path tracing per test.
func DiagnoseBSIM(faulty *Circuit, tests TestSet, opts PTOptions) *BSIMResult {
	return core.BSIM(faulty, tests, opts)
}

// DiagnoseXList runs the X-injection screening engine (forward
// three-valued implications instead of backward path tracing): a gate is
// a candidate for a test iff an X at its output reaches the erroneous
// output. Pass CovOptions.UseXList to run set covering on these sets.
func DiagnoseXList(faulty *Circuit, tests TestSet) *BSIMResult {
	return core.XDiagnose(faulty, tests)
}

// AdvSim options and results (the advanced simulation-based approach:
// backtracking over path-trace candidates with effect analysis by
// re-simulation).
type (
	AdvSimOptions = core.AdvSimOptions
	AdvSimResult  = core.AdvSimResult
)

// DiagnoseAdvSim runs the advanced simulation-based diagnosis: every
// returned correction is valid and essential, but the candidate pool is
// limited to sensitized paths (it may miss corrections BSAT finds).
func DiagnoseAdvSim(faulty *Circuit, tests TestSet, opts AdvSimOptions) (*AdvSimResult, error) {
	return core.AdvSimDiagnose(faulty, tests, opts)
}

// DiagnoseCOV runs SCDiagnose: BSIM plus all irredundant set covers of
// size at most opts.K.
func DiagnoseCOV(faulty *Circuit, tests TestSet, opts CovOptions) (*CovResult, error) {
	return core.COV(faulty, tests, opts)
}

// DiagnoseBSAT runs BasicSATDiagnose: every solution is a valid
// correction containing only essential candidates, up to size opts.K.
func DiagnoseBSAT(faulty *Circuit, tests TestSet, opts BSATOptions) (*BSATResult, error) {
	return core.BSAT(faulty, tests, opts)
}

// DiagnoseCEGAR returns DiagnoseBSAT's solution set as the minimal
// hitting sets of size <= opts.K of per-test SAT conflicts (an implicit
// hitting set loop). Candidates are proposed by size from the conflicts
// found so far and checked against the full test-set by the incremental
// simulation oracle. A refuted candidate's first refuting test is
// encoded once, and the failed-assumption core of its copy, solved with
// every cone candidate outside the candidate switched off, is the next
// conflict. The instance encodes only CEGARResult.Copies of the m test
// copies the monolith pays for up front; Refinements counts the
// conflicts.
func DiagnoseCEGAR(faulty *Circuit, tests TestSet, opts BSATOptions) (*CEGARResult, error) {
	return core.CEGARDiagnose(faulty, tests, opts)
}

// DiagnoseHybrid runs BSAT with its decision heuristics steered by
// path-trace mark counts (the paper's Section 6 hybrid); the solution
// set is identical to DiagnoseBSAT.
func DiagnoseHybrid(faulty *Circuit, tests TestSet, opts BSATOptions, pt PTOptions) (*BSATResult, *BSIMResult, error) {
	return core.HybridBSAT(faulty, tests, opts, pt)
}

// RepairCover validates covering solutions by effect analysis and, when
// none is valid, repairs the best candidate with SAT (second Section 6
// hybrid).
func RepairCover(faulty *Circuit, tests TestSet, covRes *CovResult, opts BSATOptions) (*RepairResult, error) {
	return core.CovGuidedRepair(faulty, tests, covRes, opts)
}

// RepairCoverReusing is RepairCover against the live diagnosis session
// of an earlier BSAT/hybrid/CEGAR run over the same circuit, so the
// repair queries skip instance construction entirely. tests is the
// full test-set the repair must be valid for (a CEGAR session encodes
// only a subset of it); every reported repair is validated against it.
func RepairCoverReusing(bsatRes *BSATResult, tests TestSet, covRes *CovResult, opts BSATOptions) (*RepairResult, error) {
	return core.CovGuidedRepairSession(bsatRes.Session(), tests, covRes, opts)
}

// Validate performs exact effect analysis (Definition 3): can values at
// the given gates rectify every test?
func Validate(faulty *Circuit, tests TestSet, gates []int) bool {
	return core.Validate(faulty, tests, gates)
}

// Essential reports whether gates form a valid correction from which no
// gate can be dropped (Definition 4).
func Essential(faulty *Circuit, tests TestSet, gates []int) bool {
	return core.Essential(faulty, tests, gates)
}

// Simulate evaluates the circuit on one vector and returns the output
// values in Circuit.Outputs order.
func Simulate(c *Circuit, vec []bool) []bool { return sim.Eval(c, vec) }

// MeasureBSIM computes the paper's Table 3 BSIM quality statistics
// against known error sites.
func MeasureBSIM(c *Circuit, res *BSIMResult, sites []int) BSIMQuality {
	return metrics.MeasureBSIM(c, res, sites)
}

// MeasureSolutions computes the Table 3 solution quality statistics.
func MeasureSolutions(c *Circuit, ss *SolutionSet, sites []int) SolutionQuality {
	return metrics.MeasureSolutions(c, ss, sites)
}

// Sequential diagnosis (time-frame expansion; the application of BSAT
// the paper cites as [4]).
type (
	// SeqTest is a sequential stimulus: input sequence, initial state,
	// and an erroneous observable output at one frame.
	SeqTest = seq.Test
	// SeqGenOptions configures sequential test generation.
	SeqGenOptions = seq.GenOptions
	// Unrolled is a time-frame expansion of a sequential circuit.
	Unrolled = seq.Unrolled
)

// SimulateSequence runs a sequential circuit (flip-flops recorded in
// Circuit.Latches) over an input sequence from the given initial state,
// returning per-frame observable output values.
func SimulateSequence(c *Circuit, initial []bool, vectors [][]bool) ([][]bool, error) {
	return seq.Simulate(c, initial, vectors)
}

// MakeSeqTests derives failing sequential tests by random-sequence
// simulation of the golden/faulty pair.
func MakeSeqTests(golden, faulty *Circuit, opts SeqGenOptions) ([]SeqTest, error) {
	return seq.GenerateTests(golden, faulty, opts)
}

// DiagnoseSequential runs SAT-based diagnosis on a time-frame expansion:
// one select line per physical gate, shared across frames and tests.
// Reported corrections name gates of the original circuit.
func DiagnoseSequential(faulty *Circuit, tests []SeqTest, frames int, opts BSATOptions) (*BSATResult, *Unrolled, error) {
	return seq.BSAT(faulty, tests, frames, opts)
}

// ValidateSequential checks a sequential correction by exact effect
// analysis on the unrolled circuit.
func ValidateSequential(u *Unrolled, tests []SeqTest, gates []int) (bool, error) {
	return seq.Validate(u, tests, gates)
}
