package cnf

// RunCubes exposes the worker harness to the external fault tests,
// which drive it with synthetic cube functions.
func (sess *DiagSession) RunCubes(shards int, opts RoundOptions, sample [][]int, keepLearnts bool,
	run func(worker int, sh *Shard, cube Cube, budget RoundOptions) ([][]int, bool)) ([][][]int, []ShardStats, bool) {
	return sess.runCubes(shards, opts, sample, keepLearnts, run)
}
