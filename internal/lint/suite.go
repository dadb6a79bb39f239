package lint

// This file pins the repo's own analyzer configuration — the single
// source of truth shared by cmd/aiaclint and the lint CI leg. Tests build
// differently-scoped instances (pointing at fixture packages); production
// runs use exactly this.

// VirtualTimePaths are the packages on the virtual-time path: everything
// whose behavior must be a pure function of (inputs, seeds) for the
// recorded engine golden file, -resume, and the committed BENCH baselines
// to mean anything.
var VirtualTimePaths = []string{
	"aiac/internal/protocol",
	"aiac/internal/des",
	"aiac/internal/aiac",
	"aiac/internal/env",
	"aiac/internal/netsim",
	"aiac/internal/marcel",
	"aiac/internal/scenario",
}

// MaprangePaths additionally covers the packages whose map iterations can
// reach report rows, schedules, or wire sends even though they are not
// themselves on the virtual-time path.
var MaprangePaths = append([]string{
	"aiac/internal/backend",
	"aiac/internal/matrix",
	"aiac/internal/report",
	"aiac/internal/transport",
	"aiac/internal/obs",
}, VirtualTimePaths...)

// ObsPaths hold the nil-safe telemetry handle types.
var ObsPaths = []string{
	"aiac/internal/obs",
}

// RepoAddrstable anchors the content-address completeness check to
// matrix.cellCacheKey and the parameter structs it must cover.
var RepoAddrstable = AddrstableConfig{
	Pkg:  "aiac/internal/matrix",
	Func: "cellCacheKey",
	Structs: []string{
		"aiac/internal/matrix.LinearParams",
		"aiac/internal/matrix.ChemParams",
		"aiac/internal/protocol.Params",
	},
}

// Suite returns the repo's analyzer suite in its production
// configuration.
func Suite() []*Analyzer {
	return []*Analyzer{
		Detpure(DetpureConfig{Paths: VirtualTimePaths}),
		Maprange(MaprangePaths...),
		Hotalloc(),
		Addrstable(RepoAddrstable),
		Obsnilsafe(ObsPaths...),
	}
}

// RepoUnlinked is the unlinked check over the module at root, with the
// functions kept though no binary links them, each with its reason.
func RepoUnlinked(root string) *Analyzer {
	return Unlinked(root, map[string]string{
		"aiac/internal/ladder":                       "test-support package: the harness of the TestLadder* measurements",
		"aiac/internal/sparse/kernels":               "test-support package: the measured kernel rungs' baselines",
		"aiac/internal/golden":                       "test-support package: the recorded engine rows",
		"aiac/internal/lint/linttest":                "test-support package: the analyzers' fixture runner",
		"aiac/internal/cluster.Homogeneous":          "fixture grid of the tests of eight packages",
		"aiac/internal/des.Simulator.LiveProcs":      "live-process probe of des's and envcore's tests",
		"aiac/internal/des.Simulator.QueueHighWater": "the queue depth the benchmark's des.queue_depth is to read",
		"aiac/internal/newton.Solve":                 "sequential chem reference of backend's and problems' tests",
		"aiac/internal/problems.Cache.Stats":         "cache probe of matrix's tests: one system held at a time",
		"aiac/internal/sparse.PinPortable":           "the hook by which tests run the portable kernel path",
		"aiac/internal/trace.Span.At":                "run expansion that trace's and critpath's tests compare against",
	})
}
