package matrix

import (
	"fmt"
	"strings"
)

// PresetNames lists the experiments of the paper's evaluation (§5) that
// are sweeps: the sparse linear comparison (Table 2), the non-linear
// comparison on both measurement grids (Table 3) and the scalability sweep
// on the local cluster (Figure 3).
var PresetNames = []string{"table2", "table3", "figure3"}

// Preset returns the named paper experiment as a Spec: axis filters plus
// the Table 1 parameters cmd/aiacbench has no flags for. Every version is
// enumerated, so each group's first row is the paper's sync-mpi baseline
// and its async rows are the paper's other three versions; the sync rows
// of the threaded environments ride along. Sizes are reduced from Table 1
// (n = 2 000 000 and a 600×600 grid, on 15 processors) so that a preset
// runs in seconds; the size and procs axes restore them. The reduction
// keeps the ordering of the versions but not every ratio: measured on
// Table 2 at n = 2 000 000 over 15 processors, async madmpi's speed-up over
// sync mpi falls from 1.81 at the preset to 1.37 (async pm2 2.37 → 2.21).
func Preset(name string) (Spec, error) {
	s := DefaultSpec()
	switch name {
	case "table2":
		// 120k unknowns over 12 processors gives 10k-row blocks whose
		// exchange messages (~80 KB) are firmly in the large-message regime
		// of the middlewares, like the paper's 133k-row blocks. Fast
		// processors spin many cheap iterations between data refreshes,
		// hence the generous cap.
		s.Grids, s.Procs, s.Sizes = []string{"3site"}, []int{12}, []int{120000}
		s.Linear = LinearParams{Diags: 30, Rho: 0.88, Eps: 1e-7, MaxIters: 1000000, Seed: 20040426}
	case "table3":
		s.Problems, s.Grids = []string{"chem"}, []string{"3site", "adsl"}
		s.Procs, s.Sizes = []int{12}, []int{48}
	case "figure3":
		s.Problems, s.Grids, s.Sizes = []string{"chem"}, []string{"local"}, []int{100}
		s.Procs = []int{10, 15, 20, 25, 30, 35, 40}
		s.Chem.HorizonS = 180
	default:
		return Spec{}, fmt.Errorf("unknown paper preset %q (known: %s)", name, strings.Join(PresetNames, ", "))
	}
	return s, nil
}

// Parameters renders the parameters of the spec's problems in the layout
// of the paper's Table 1, which has the sparse linear and the chemical
// problem.
func (s Spec) Parameters() string {
	s = s.withDefaults()
	var b strings.Builder
	for _, prob := range s.Problems {
		sizes := s.Sizes
		if len(sizes) == 0 {
			sizes = []int{DefaultSizeFor(prob)}
		}
		switch prob {
		case "linear":
			fmt.Fprintf(&b, "Sparse linear system (linear)\n")
			for _, n := range sizes {
				fmt.Fprintf(&b, "  matrix size                      %d x %d\n", n, n)
			}
			fmt.Fprintf(&b, "  repartition of non-zero values   %d sub-diagonals\n", s.Linear.Diags)
			fmt.Fprintf(&b, "  spectral radius bound            %.2f\n", s.Linear.Rho)
		case "chem":
			fmt.Fprintf(&b, "Non-linear problem (chem)\n")
			for _, n := range sizes {
				fmt.Fprintf(&b, "  discretization grid              %d x %d\n", n, n)
			}
			fmt.Fprintf(&b, "  time interval                    %gs\n", s.Chem.HorizonS)
			fmt.Fprintf(&b, "  time step                        %gs\n", s.Chem.StepS)
		}
	}
	return b.String()
}
