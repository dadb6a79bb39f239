package envcore_test

import (
	"testing"

	"aiac/internal/cluster"
	"aiac/internal/des"
	"aiac/internal/env/envcore"
	"aiac/internal/matrix"
	"aiac/internal/netsim"
)

// TestMiddlewareRows checks every row of the middleware table, one per
// environment axis value and problem kind: its display name, its Table 4
// string, its header bytes (omniorb's is the empty GIOP 1.2 request), and its deployment requirement on a grid with one blocked site
// pair (§5.3: only the ORB relays around it). Table 4 as -paper prints it
// must read as the rows say.
func TestMiddlewareRows(t *testing.T) {
	type row struct {
		name, policy string
		relays       bool
		header       int
	}
	const mono = "mono-threaded: blocking sends and receives in the iteration loop"
	want := map[string][2]row{ // [0] sparse linear, [1] chemical
		"mpi": {{"sync-mpi", mono, false, 64}, {"sync-mpi", mono, false, 64}},
		"pm2": {
			{"pm2", "one sending thread, receiving threads created on demand", false, 40},
			{"pm2", "two sending threads, one receiving thread", false, 40},
		},
		"madmpi": {
			{"mpi/mad", "one sending thread, one receiving thread", false, 64},
			{"mpi/mad", "two sending threads, two receiving threads", false, 64},
		},
		"omniorb": {
			{"omniorb4", "N sending threads, receiving threads created on demand", true, 96},
			{"omniorb4", "two sending threads, receiving threads created on demand", true, 96},
		},
	}
	if len(want) != len(matrix.EnvNames) {
		t.Fatalf("the test knows %d environments, the axis has %v", len(want), matrix.EnvNames)
	}
	for _, env := range matrix.EnvNames {
		w, ok := want[env]
		if !ok {
			t.Fatalf("no expectation for environment %q", env)
		}
		for k, kind := range []string{"sparse", "nonlinear"} {
			t.Run(env+"/"+kind, func(t *testing.T) {
				opts := envcore.Middleware(env, kind == "sparse")
				if opts.Name != w[k].name || opts.ThreadPolicy != w[k].policy {
					t.Errorf("%q %q, want %q %q", opts.Name, opts.ThreadPolicy, w[k].name, w[k].policy)
				}
				if opts.Costs.HeaderBytes != w[k].header {
					t.Errorf("header %d bytes, want %d", opts.Costs.HeaderBytes, w[k].header)
				}
				grid := cluster.ThreeSiteEthernet(des.New(), 6)
				grid.Net.Block(0, 1)
				_, err := envcore.New(grid, opts)
				if w[k].relays && err != nil {
					t.Errorf("must deploy on a blocked grid by relaying: %v", err)
				}
				if !w[k].relays && err == nil {
					t.Error("must refuse an incomplete connection graph (§5.3)")
				}
			})
		}
	}

	for _, c := range []struct{ problem, table4 string }{
		{"linear", "  pm2              one sending thread, receiving threads created on demand\n" +
			"  mpi/mad          one sending thread, one receiving thread\n" +
			"  omniorb4         N sending threads, receiving threads created on demand\n"},
		{"chem", "  pm2              two sending threads, one receiving thread\n" +
			"  mpi/mad          two sending threads, two receiving threads\n" +
			"  omniorb4         two sending threads, receiving threads created on demand\n"},
	} {
		t.Run("table4/"+c.problem, func(t *testing.T) {
			if got := matrix.ThreadPolicies(c.problem); got != c.table4 {
				t.Errorf("got:\n%s\nwant:\n%s", got, c.table4)
			}
		})
	}
}

// MPICH/Madeleine's row sends intra-site traffic over the fastest SAN the
// site offers and everything else over TCP.
func TestProtoForPrefersSAN(t *testing.T) {
	proto := envcore.Middleware("madmpi", true).ProtoFor
	if p := proto(cluster.LocalMultiProtocol(des.New(), 4).Net, 0, 1); p != "myrinet" {
		t.Fatalf("intra-site proto = %q, want myrinet", p)
	}
	if p := proto(cluster.ThreeSiteEthernet(des.New(), 4).Net, 0, 1); p != netsim.TCP {
		t.Fatalf("inter-site proto = %q, want tcp", p)
	}
}
