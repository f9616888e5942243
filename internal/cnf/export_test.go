package cnf

// RunCubes exposes the worker harness to the external fault tests,
// which drive it with synthetic cube functions.
func (sess *DiagSession) RunCubes(shards int, opts RoundOptions, sample [][]int,
	run func(clone *DiagSession, cube Cube, budget RoundOptions) ([][]int, bool)) ([][][]int, []ShardStats) {
	return sess.runCubes(shards, opts, sample, run)
}

// Fork exposes the worker clone to the external fork tests.
func (sess *DiagSession) Fork() *DiagSession { return sess.fork() }
