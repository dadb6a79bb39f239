package matrix

import (
	"testing"
	"time"
)

// TestContentAddressesPinned holds cellCacheKey to literal addresses, one
// per problem and one native cell, so a sidecar written by an earlier
// build keeps resuming and any change to an address is made on purpose:
// a moved address re-executes every cell of every resumed sweep.
func TestContentAddressesPinned(t *testing.T) {
	spec := DefaultSpec().withDefaults()
	for _, tc := range []struct {
		key     string
		reps    int
		seed    int64
		timeout time.Duration
		want    string
	}{
		{"mpi/sync/adsl/linear/p8/n12000/static/sim", 1, 0, 0,
			"schema=4|cell=mpi/sync/adsl/linear/p8/n12000/static/sim|linear{diags=12,rho=0.85,eps=1e-05,maxiters=3000000,matseed=20040426}|reps=1|jitterseed=0|grace=1000000ns|heartbeat=500000000ns|persist=3|timeout=-"},
		{"omniorb/sync/local/chem/p8/n36/static/sim", 1, 0, 0,
			"schema=4|cell=omniorb/sync/local/chem/p8/n36/static/sim|chem{step=180,horizon=540,eps=1e-06,gmrestol=1e-06}|reps=1|jitterseed=0|grace=1000000ns|heartbeat=500000000ns|persist=3|timeout=-"},
		{"go/async/local/linear/p4/n1500/flaky-adsl/chan", 2, 0, 30 * time.Second,
			"schema=4|cell=go/async/local/linear/p4/n1500/flaky-adsl/chan|linear{diags=12,rho=0.85,eps=1e-05,maxiters=3000000,matseed=20040426}|reps=2|jitterseed=0|grace=1000000ns|heartbeat=500000000ns|persist=3|timeout=30s"},
	} {
		c, err := ParseKey(tc.key)
		if err != nil {
			t.Fatal(err)
		}
		if got := cellCacheKey(c, spec, tc.reps, tc.seed, tc.timeout); got != tc.want {
			t.Errorf("%s: content address\n got %s\nwant %s", tc.key, got, tc.want)
		}
	}
}

// A cell's content address names its own problem's parameters and no
// other's: retuning chem re-executes no linear cell on resume, and
// retuning the linear system no chem cell, while a change to the cell's
// own problem moves its address.
func TestContentAddressNamesOnlyItsProblem(t *testing.T) {
	base := DefaultSpec().withDefaults()
	linear := base
	linear.Linear.Rho, linear.Linear.MaxIters = 0.7, 5
	chem := base
	chem.Chem.StepS, chem.Chem.GmresTol = 90, 1e-8
	for _, tc := range []struct {
		key         string
		own, others Spec
	}{
		{"mpi/sync/adsl/linear/p8/n12000/static/sim", linear, chem},
		{"omniorb/sync/local/chem/p8/n36/static/sim", chem, linear},
	} {
		c, err := ParseKey(tc.key)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(c.Problem, func(t *testing.T) {
			want := cellCacheKey(c, base, 1, 0, 0)
			if got := cellCacheKey(c, tc.others, 1, 0, 0); got != want {
				t.Errorf("another problem's parameters moved the address\n got %s\nwant %s", got, want)
			}
			if got := cellCacheKey(c, tc.own, 1, 0, 0); got == want {
				t.Errorf("the cell's own parameters left the address at %s", got)
			}
		})
	}
}
