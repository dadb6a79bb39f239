package obs

import "testing"

func TestTimelineDecimationDeterministic(t *testing.T) {
	// Two runs over the same offered sequence retain identical samples.
	record := func() *Residuals {
		rs := NewResiduals(1)
		for i := 0; i < 10_000; i++ {
			rs.Record(0, float64(i), 1/float64(i+1))
		}
		return rs
	}
	a, b := record().Rank(0), record().Rank(0)
	if len(a.Samples) != len(b.Samples) {
		t.Fatalf("sample counts differ: %d vs %d", len(a.Samples), len(b.Samples))
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, a.Samples[i], b.Samples[i])
		}
	}
	if len(a.Samples) >= MaxTimelineSamples {
		t.Fatalf("cap not enforced: %d samples", len(a.Samples))
	}
	if len(a.Samples) < MaxTimelineSamples/4 {
		t.Fatalf("over-decimated: %d samples", len(a.Samples))
	}
	// First offered sample is always retained; samples stay time-ordered.
	if a.Samples[0].T != 0 {
		t.Errorf("first sample dropped: %v", a.Samples[0])
	}
	for i := 1; i < len(a.Samples); i++ {
		if a.Samples[i].T <= a.Samples[i-1].T {
			t.Fatalf("samples out of order at %d", i)
		}
	}
}

func TestTimelineStrideDoubles(t *testing.T) {
	rs := NewResiduals(1)
	for i := 0; i < MaxTimelineSamples; i++ {
		rs.Record(0, float64(i), 1)
	}
	if got := rs.Rank(0).Stride; got != 2 {
		t.Errorf("stride after first overflow = %d, want 2", got)
	}
	for i := MaxTimelineSamples; i < 4*MaxTimelineSamples; i++ {
		rs.Record(0, float64(i), 1)
	}
	if got := rs.Rank(0).Stride; got < 4 {
		t.Errorf("stride after further overflow = %d, want >= 4", got)
	}
}

func TestTimelineShortRunKeepsEverything(t *testing.T) {
	rs := NewResiduals(2)
	for i := 0; i < 100; i++ {
		rs.Record(1, float64(i), float64(100-i))
	}
	if got := len(rs.Rank(1).Samples); got != 100 {
		t.Errorf("short run downsampled: %d of 100 kept", got)
	}
	if got := len(rs.Rank(0).Samples); got != 0 {
		t.Errorf("untouched rank has %d samples", got)
	}
}

func TestTimelineRestartsNeverDownsampled(t *testing.T) {
	rs := NewResiduals(1)
	for i := 0; i < 5_000; i++ {
		rs.Record(0, float64(i), 1)
		if i%1000 == 999 {
			rs.MarkRestart(0, float64(i))
		}
	}
	if got := len(rs.Rank(0).Restarts); got != 5 {
		t.Errorf("restarts = %d, want 5", got)
	}
}

func TestTimelineNilSafe(t *testing.T) {
	var rs *Residuals
	rs.Record(0, 1, 1)
	rs.MarkRestart(0, 1)
	if rs.Ranks() != 0 {
		t.Error("nil Residuals has ranks")
	}
}

// RecordRun keeps exactly the samples its n Record calls would, across
// stride doublings, asking for the instants of those alone.
func TestRecordRunEqualsRecords(t *testing.T) {
	runs := []int{3, 1, 700, 5000, 2, 9000, 1}
	at := func(base, i int) float64 { return float64(base+i) / 7 }
	one, bulk := NewResiduals(1), NewResiduals(1)
	base, asked := 0, 0
	for _, n := range runs {
		for i := 0; i < n; i++ {
			one.Record(0, at(base, i), float64(n))
		}
		b := base
		bulk.RecordRun(0, n, func(i int) float64 { asked++; return at(b, i) }, float64(n))
		base += n
	}
	a, b := one.Rank(0), bulk.Rank(0)
	if a.Stride != b.Stride || len(a.Samples) != len(b.Samples) {
		t.Fatalf("stride %d / %d, samples %d / %d", a.Stride, b.Stride, len(a.Samples), len(b.Samples))
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("sample %d: %v vs %v", i, a.Samples[i], b.Samples[i])
		}
	}
	if asked >= base/2 {
		t.Fatalf("RecordRun asked for %d of %d instants; want only the kept ones", asked, base)
	}
}
