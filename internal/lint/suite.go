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
		"aiac/internal/matrix.NewtonParams",
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
