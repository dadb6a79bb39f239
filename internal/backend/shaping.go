package backend

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"aiac/internal/transport"
)

// This file gives the simulated grids (internal/cluster) a native
// analogue: a per-link transport.Shaping matrix whose delays keep the
// *structure* of each platform — which ranks sit together on a fast LAN,
// which talk across a slow uplink, and where the ADSL asymmetry is — at
// wall-clock scales chosen so a native sweep stays interactive. The
// absolute numbers are deliberately much smaller than the simulator's
// (the DES can afford a 128 kb/s uplink taking seconds per message; a
// wall-clock sweep cannot), so native times are compared through the
// calibration table (internal/report), not read as reproductions of the
// paper's.
//
// Site assignment matches the cluster builders: round-robin over the
// grid's sites, with the last site of "adsl" behind the asymmetric link.

// The wall-clock delay scales of the native grids.
const (
	lanDelay      = 200 * time.Microsecond // 100 Mb/s local Ethernet
	fastDelay     = 50 * time.Microsecond  // Myrinet-class local network
	wanDelay      = 5 * time.Millisecond   // inter-site long-distance link
	adslUpDelay   = 60 * time.Millisecond  // out of the ADSL site (128 kb/s up)
	adslDownDelay = 25 * time.Millisecond  // into the ADSL site (512 kb/s down)
)

// GridNames lists the native grid profiles (the simulator's grid axis).
var GridNames = []string{"3site", "adsl", "local", "multiproto"}

// GridShaping returns the n×n per-link shaping matrix of the named grid
// profile.
func GridShaping(grid string, n int) ([][]transport.Shaping, error) {
	site, sites, err := siteLayout(grid)
	if err != nil {
		return nil, err
	}
	m := make([][]transport.Shaping, n)
	for from := 0; from < n; from++ {
		m[from] = make([]transport.Shaping, n)
		for to := 0; to < n; to++ {
			if to == from {
				continue
			}
			m[from][to] = linkShape(grid, site(from), site(to), sites)
		}
	}
	return m, nil
}

// siteLayout returns the rank → site assignment of the grid (round-robin,
// like the cluster builders) and its site count.
func siteLayout(grid string) (func(rank int) int, int, error) {
	switch grid {
	case "3site":
		return func(r int) int { return r % 3 }, 3, nil
	case "adsl":
		return func(r int) int { return r % 4 }, 4, nil
	case "local", "multiproto":
		return func(int) int { return 0 }, 1, nil
	default:
		return nil, 0, fmt.Errorf("unknown native grid %q (known: %s)", grid, strings.Join(GridNames, ", "))
	}
}

// linkShape picks the delay of one directed link from the grid's
// structure. The ADSL grid's last site is behind the asymmetric uplink:
// leaving it is slower than entering it, mirroring 128 kb/s up versus
// 512 kb/s down.
func linkShape(grid string, fromSite, toSite, sites int) transport.Shaping {
	if fromSite == toSite {
		if grid == "multiproto" {
			return transport.Shaping{Delay: fastDelay}
		}
		return transport.Shaping{Delay: lanDelay}
	}
	if grid == "adsl" {
		if fromSite == sites-1 {
			return transport.Shaping{Delay: adslUpDelay}
		}
		if toSite == sites-1 {
			return transport.Shaping{Delay: adslDownDelay}
		}
	}
	return transport.Shaping{Delay: wanDelay}
}

// --- Scenario shaping ---
//
// The simulated scenarios (internal/scenario) are scripted timelines, but a
// native transport's links are shaped once, before Start. The two presets
// that perturb the *network* therefore map to their steady-state analogue:
// the duty cycle of the scripted bursts becomes a constant loss rate or
// latency factor held for the whole run. The CPU- and crash-based presets
// (diurnal-load, node-churn) have no transport-level analogue — background
// load and state loss live above the wire — and stay simulator-only.

// NativeScenarioNames lists the grid-dynamics presets a native cell can
// run: the static grid, plus the two network perturbations with
// steady-state transport analogues.
var NativeScenarioNames = []string{"static", "flaky-adsl", "lossy-wan"}

// NativeScenario reports whether the named scenario has a native analogue.
func NativeScenario(name string) bool {
	return name == "" || slices.Contains(NativeScenarioNames, name)
}

// DefaultLossSeed seeds the deterministic per-link loss streams when the
// caller has no sweep seed, so an unseeded lossy native cell still drops
// the same messages on every run and on both transports.
const DefaultLossSeed = 20040426

// The steady-state scenario constants: the scripted flaky-adsl preset
// partitions the weakest site for roughly a third of the run (loss 0.3 on
// its cross-site links here) and multiplies single-site LAN latency by 200
// inside its bursts (a milder constant ×20 here, so native runs stay
// interactive); lossy-wan drops 30% of data messages inside bursts whose
// duty cycle is about a third (a constant 10% here).
const (
	flakyCrossSiteLoss = 0.3
	flakyLANDelayMul   = 20
	lossyWANLoss       = 0.1
)

// ScenarioGridShaping returns the named grid's n×n shaping matrix with the
// scenario's steady-state analogue applied. seed selects the deterministic
// per-link loss streams (0 falls back to DefaultLossSeed).
func ScenarioGridShaping(grid, scen string, n int, seed int64) ([][]transport.Shaping, error) {
	m, err := GridShaping(grid, n)
	if err != nil {
		return nil, err
	}
	if scen == "" {
		scen = "static"
	}
	if seed == 0 {
		seed = DefaultLossSeed
	}
	site, sites, err := siteLayout(grid)
	if err != nil {
		return nil, err
	}
	// Per-link seeds decorrelate the loss streams of different links while
	// keeping the whole matrix a pure function of (grid, scen, n, seed).
	linkSeed := func(from, to int) int64 { return seed + int64(from*n+to) }
	switch scen {
	case "static":
	case "flaky-adsl":
		if sites == 1 {
			// No uplink to cut: the LAN degrades instead, like the
			// simulated preset.
			for from := range m {
				for to := range m[from] {
					if to != from {
						m[from][to].Delay *= flakyLANDelayMul
					}
				}
			}
			break
		}
		weakest := sites - 1 // the ADSL site on the paper's second grid
		for from := range m {
			for to := range m[from] {
				if to == from || site(from) == site(to) {
					continue
				}
				if site(from) == weakest || site(to) == weakest {
					m[from][to].Loss = flakyCrossSiteLoss
					m[from][to].Seed = linkSeed(from, to)
				}
			}
		}
	case "lossy-wan":
		for from := range m {
			for to := range m[from] {
				if to != from {
					m[from][to].Loss = lossyWANLoss
					m[from][to].Seed = linkSeed(from, to)
				}
			}
		}
	default:
		return nil, fmt.Errorf("scenario %q has no native analogue (native scenarios: %s)",
			scen, strings.Join(NativeScenarioNames, ", "))
	}
	return m, nil
}

// ApplyScenarioShaping shapes every link of tr according to the named grid
// profile with the scenario's steady-state analogue. Must be called before
// tr.Start.
func ApplyScenarioShaping(tr transport.Transport, grid, scen string, seed int64) error {
	m, err := ScenarioGridShaping(grid, scen, tr.Size(), seed)
	if err != nil {
		return err
	}
	for from := range m {
		for to := range m[from] {
			if to != from {
				tr.SetShaping(from, to, m[from][to])
			}
		}
	}
	return nil
}

// NewTransport builds the named transport ("chan" or "tcp") over n ranks.
func NewTransport(name string, n int) (transport.Transport, error) {
	switch name {
	case "chan":
		return transport.NewChan(n), nil
	case "tcp":
		return transport.NewTCP(n), nil
	default:
		return nil, fmt.Errorf("unknown transport %q (known: chan, tcp)", name)
	}
}
