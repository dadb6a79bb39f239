// Package bench holds the checks that span packages and so have no single
// package to live in: the allocation gates on the kernels, the simulator
// core, the trace and every environment's message path (alloc_test.go,
// msgpath_test.go), the MSGPATH.md table with its frozen event counts and
// fingerprints (msgpath_table_test.go), and the micro-benchmarks of the
// relaxation/matvec hot path (micro_bench_test.go). It is only tests:
// nothing imports it, and it runs no experiment — those are
// internal/matrix cells, the paper's own tables included (matrix.Preset).
package bench
