package obs

// Convergence red-flag detectors. Given a cell's per-rank residual
// timelines and its convergence outcome, Detect returns a sorted set of
// flag names describing trajectory pathologies that a converged/stalled
// bit alone cannot express:
//
//   - oscillation: the residual repeatedly blows up far above its running
//     minimum, and keeps doing so in the trailing half of the run — the
//     classic divergent-then-recovering sawtooth of an asynchronous
//     iteration whose spectral radius flirts with 1, or of messages
//     applied so stale that progress is repeatedly undone. (The early
//     transient of a healthy AIAC solve also swings across orders of
//     magnitude; a sawtooth that dies out is not an oscillation.)
//   - plateau: the cell did not converge and the trailing stretch of the
//     trajectory shows essentially no improvement — it was not "almost
//     there", it was stuck. Distinguishes a too-small iteration budget
//     from a genuinely stagnant iteration.
//   - restart-regression: after the last crash/recovery the residual
//     never got back down to its pre-crash best — recovery lost
//     numerical ground it could not re-earn.
//
// One more flag is not a detector's: non-finite marks a cell whose solve
// ended on a NaN or infinite Update residual (aiac.StopNonFinite); the
// sweep sets it from the solve's stop reason, since downsampling may drop
// the one sample that showed it.
//
// The detectors only read downsampled trajectories, so thresholds are
// deliberately coarse: each flag should fire on order-of-magnitude
// pathologies, never on the noisy-but-healthy trajectories of the smoke
// matrix (the zero-flags regression test pins that).

import "sort"

// Flag names, in the order they print.
const (
	FlagOscillation       = "oscillation"
	FlagPlateau           = "plateau"
	FlagRestartRegression = "restart-regression"
	FlagNonFinite         = "non-finite"
)

// DetectorParams tunes the red-flag detectors.
type DetectorParams struct {
	// Eps is the cell's convergence threshold. Residuals at or below Eps
	// never flag: reaching the target is healthy however the trajectory
	// got there.
	Eps float64
}

// The detectors' fixed thresholds.
const (
	// oscFactor is the blow-up factor over the running minimum that
	// counts as one oscillation excursion.
	oscFactor = 1e3
	// oscMin is the excursion count at which the oscillation flag fires.
	oscMin = 4
	// plateauWindow is the trailing fraction of samples examined for
	// stagnation.
	plateauWindow = 0.25
	// plateauFactor is the minimum first/last improvement ratio over the
	// window for the trajectory to count as still progressing: less than
	// 2x improvement across the trailing quarter of a non-converged run
	// is a plateau.
	plateauFactor = 2
	// regressSlack is how much worse than the pre-restart minimum the
	// post-restart minimum must be to flag.
	regressSlack = 10
)

// minSamples is the shortest timeline the trend detectors consider; with
// fewer points a trajectory has no meaningful "trailing window".
const minSamples = 16

// Detect runs every detector over every rank's timeline and returns the
// union of fired flags, sorted. converged reports the cell's outcome (the
// plateau detector only examines non-converged cells). A nil or empty
// Residuals yields no flags.
func Detect(rs *Residuals, converged bool, p DetectorParams) []string {
	set := make(map[string]bool)
	for r := 0; r < rs.Ranks(); r++ {
		tl := rs.Rank(r)
		if detectOscillation(tl, p) {
			set[FlagOscillation] = true
		}
		if !converged && detectPlateau(tl, p) {
			set[FlagPlateau] = true
		}
		if detectRestartRegression(tl, p) {
			set[FlagRestartRegression] = true
		}
	}
	if len(set) == 0 {
		return nil
	}
	flags := make([]string, 0, len(set))
	for f := range set {
		flags = append(flags, f)
	}
	sort.Strings(flags)
	return flags
}

// detectOscillation counts excursions where the residual rises more than
// oscFactor above the running minimum. Each crossing of the threshold
// counts once; the excursion must fall back below it before a new one can
// count. Healthy asynchronous iterations are deliberately not excursions,
// which takes three guards: crash recoveries legitimately re-inflate the
// residual, so the running minimum resets at each restart; once a rank's
// residual has fallen near Eps, fresh neighbour updates routinely bounce
// it back up while the stop protocol settles, so the running minimum is
// floored at Eps; and the early transient of a healthy AIAC solve swings
// across orders of magnitude before the envelope settles, so only
// excursions starting in the trailing half of the timeline count — a true
// oscillation is a sawtooth that persists, not one that dies out.
func detectOscillation(tl *Timeline, p DetectorParams) bool {
	excursions := 0
	runMin := 0.0
	inExcursion := false
	ri := 0
	n := len(tl.Samples)
	for i, s := range tl.Samples {
		for ri < len(tl.Restarts) && tl.Restarts[ri] <= s.T {
			ri++
			runMin = 0
			inExcursion = false
		}
		if runMin == 0 || s.Res < runMin {
			runMin = s.Res
		}
		floor := runMin
		if floor < p.Eps {
			floor = p.Eps
		}
		high := s.Res > floor*oscFactor && s.Res > 100*p.Eps
		if high && !inExcursion && i >= n/2 {
			excursions++
			if excursions >= oscMin {
				return true
			}
		}
		inExcursion = high
	}
	return false
}

// detectPlateau reports whether the trailing plateauWindow fraction of a
// non-converged trajectory shows less than plateauFactor improvement
// while still above Eps.
func detectPlateau(tl *Timeline, p DetectorParams) bool {
	n := len(tl.Samples)
	if n < minSamples {
		return false
	}
	w := int(float64(n) * plateauWindow)
	if w < minSamples/2 {
		w = minSamples / 2
	}
	win := tl.Samples[n-w:]
	first, last := win[0].Res, win[len(win)-1].Res
	lo := last
	for _, s := range win {
		if s.Res < lo {
			lo = s.Res
		}
	}
	if lo <= p.Eps {
		return false // reached the target inside the window
	}
	return first < last*plateauFactor
}

// detectRestartRegression compares the best residual seen before the last
// restart with the best seen after it.
func detectRestartRegression(tl *Timeline, p DetectorParams) bool {
	if len(tl.Restarts) == 0 || len(tl.Samples) == 0 {
		return false
	}
	last := tl.Restarts[len(tl.Restarts)-1]
	preMin, postMin := 0.0, 0.0
	for _, s := range tl.Samples {
		if s.T < last {
			if preMin == 0 || s.Res < preMin {
				preMin = s.Res
			}
		} else if postMin == 0 || s.Res < postMin {
			postMin = s.Res
		}
	}
	if preMin == 0 || postMin == 0 {
		return false // no samples on one side of the restart
	}
	return postMin > preMin*regressSlack && postMin > p.Eps
}
