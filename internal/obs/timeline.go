package obs

// Per-rank convergence timelines. The engine loops call Record once per
// completed update with the local residual and the driver's current time
// (virtual seconds in the simulators, wall seconds in the native
// backend), and MarkRestart when a crashed rank re-enters the loop. The
// timelines are the input to the red-flag detectors in redflag.go.
//
// Two properties matter more than fidelity:
//
//   - Determinism. A cell may iterate millions of times, so the timeline
//     downsamples — but any randomized or time-budgeted scheme would make
//     the retained samples depend on the host. Instead each rank keeps a
//     stride: it stores every stride-th offered sample, and when the
//     buffer hits its cap it drops the odd-indexed samples and doubles
//     the stride. The retained set is a pure function of the offered
//     sequence, so identical runs retain identical timelines.
//
//   - No feedback. Recording never touches driver state; the structure is
//     write-only from the engine's perspective. Each rank writes only its
//     own timeline, matching the native backend's per-rank concurrency
//     (rank r's loop is the sole writer of timeline r), so no locks are
//     needed and recording cannot serialize ranks against each other.

// MaxTimelineSamples caps the retained samples per rank. 512 points are
// plenty for trend detection while keeping per-cell memory and JSONL
// costs trivial even for 120-rank cells.
const MaxTimelineSamples = 512

// Sample is one retained residual observation.
type Sample struct {
	T   float64 // driver time, seconds
	Res float64 // local residual after the update
}

// Timeline is one rank's downsampled residual trajectory.
type Timeline struct {
	// Stride is the current decimation factor: one retained sample per
	// Stride offered.
	Stride int
	// offered counts Record calls, to select every Stride-th one.
	offered int
	// Samples are the retained observations, in time order.
	Samples []Sample
	// Restarts are the times at which the rank re-entered the loop after
	// a crash. Never downsampled: restarts are rare and the detectors
	// need every one.
	Restarts []float64
}

// Residuals holds the per-rank timelines for one cell run.
type Residuals struct {
	ranks []Timeline
}

// NewResiduals returns timelines for n ranks.
func NewResiduals(n int) *Residuals {
	return &Residuals{ranks: make([]Timeline, n)}
}

// Record offers one residual observation for a rank. Nil-safe: a nil
// receiver records nothing.
func (rs *Residuals) Record(rank int, at, res float64) {
	if rs == nil {
		return
	}
	tl := &rs.ranks[rank]
	if tl.Stride == 0 {
		tl.Stride = 1
	}
	if tl.offered%tl.Stride == 0 {
		tl.Samples = append(tl.Samples, Sample{T: at, Res: res})
		if len(tl.Samples) >= MaxTimelineSamples {
			// Keep the even-indexed samples (including the first) and
			// double the stride; the kept set stays a pure function of
			// the offered sequence.
			kept := tl.Samples[:0]
			for i := 0; i < len(tl.Samples); i += 2 {
				kept = append(kept, tl.Samples[i])
			}
			tl.Samples = kept
			tl.Stride *= 2
		}
	}
	tl.offered++
}

// RecordRun offers n observations of the same residual, the i-th at driver
// time at(i) — what n Record calls would keep, computing at(i) only for the
// observations the stride keeps.
func (rs *Residuals) RecordRun(rank, n int, at func(i int) float64, res float64) {
	if rs == nil {
		return
	}
	tl := &rs.ranks[rank]
	for i := 0; i < n; i++ {
		if tl.Stride > 1 {
			// Skip to the next offer the stride keeps.
			skip := min((tl.Stride-tl.offered%tl.Stride)%tl.Stride, n-i)
			tl.offered += skip
			if i += skip; i == n {
				return
			}
		}
		rs.Record(rank, at(i), res)
	}
}

// MarkRestart records that a rank re-entered the iteration loop after a
// crash, at the given driver time.
func (rs *Residuals) MarkRestart(rank int, at float64) {
	if rs == nil {
		return
	}
	tl := &rs.ranks[rank]
	tl.Restarts = append(tl.Restarts, at)
}

// Ranks returns the number of per-rank timelines (0 for nil).
func (rs *Residuals) Ranks() int {
	if rs == nil {
		return 0
	}
	return len(rs.ranks)
}

// Rank returns rank r's timeline (read-only view), nil on a nil
// (recording-disabled) receiver.
func (rs *Residuals) Rank(r int) *Timeline {
	if rs == nil {
		return nil
	}
	return &rs.ranks[r]
}
