package cluster

import (
	"testing"

	"aiac/internal/des"
)

func TestThreeSiteEthernetLayout(t *testing.T) {
	g := ThreeSiteEthernet(des.New(), 9)
	if g.Size() != 9 {
		t.Fatalf("size = %d", g.Size())
	}
	if g.Net.Sites() != 3 {
		t.Fatalf("sites = %d", g.Net.Sites())
	}
	// Round-robin site placement: machines i and j share a site iff
	// i = j mod 3.
	for i, a := range g.Machines {
		for j, b := range g.Machines {
			if inter := g.Net.PathBetween(a.Node, b.Node, "").InterSite; inter != (i%3 != j%3) {
				t.Fatalf("machines %d and %d: inter-site %v", i, j, inter)
			}
		}
	}
}

func TestInterleavedHeterogeneity(t *testing.T) {
	g := LocalHeterogeneous(des.New(), 12)
	// Equal numbers of each machine kind, interleaved.
	counts := map[string]int{}
	for _, m := range g.Machines {
		counts[m.Class.Name]++
	}
	if counts[Duron800.Name] != 4 || counts[P4_1700.Name] != 4 || counts[P4_2400.Name] != 4 {
		t.Fatalf("counts = %v", counts)
	}
	// Consecutive machines have different classes (interleaving).
	for i := 1; i < g.Size(); i++ {
		if g.Machines[i].Class == g.Machines[i-1].Class {
			t.Fatalf("machines %d and %d share class %s", i-1, i, g.Machines[i].Class.Name)
		}
	}
}

func TestFourSiteADSLHasAsymmetricSite(t *testing.T) {
	g := FourSiteADSL(des.New(), 8)
	if g.Net.Sites() != 4 {
		t.Fatalf("sites = %d", g.Net.Sites())
	}
	// Round-robin placement puts machine 3 on the ADSL site and machine 0
	// elsewhere; the path out of the ADSL site must be slower than into it.
	adslNode, otherNode := g.Machines[3].Node, g.Machines[0].Node
	out := g.Net.PathBetween(adslNode, otherNode, "")
	in := g.Net.PathBetween(otherNode, adslNode, "")
	if out.BottleneckBps >= in.BottleneckBps {
		t.Fatalf("ADSL asymmetry missing: out %v >= in %v", out.BottleneckBps, in.BottleneckBps)
	}
}

func TestCPUSpeedMatchesClass(t *testing.T) {
	g := LocalHeterogeneous(des.New(), 3)
	for _, m := range g.Machines {
		if m.CPU.SpeedMFlops != m.Class.MFlops {
			t.Fatalf("machine %d: CPU speed %v != class %v", m.Node, m.CPU.SpeedMFlops, m.Class.MFlops)
		}
	}
}

func TestMultiProtocolGrid(t *testing.T) {
	g := LocalMultiProtocol(des.New(), 4)
	if !g.Net.HasProto(0, 1, "myrinet") {
		t.Fatal("myrinet should be available in the multi-protocol grid")
	}
	plain := LocalHeterogeneous(des.New(), 4)
	if plain.Net.HasProto(0, 1, "myrinet") {
		t.Fatal("plain local grid should not expose myrinet")
	}
}

func TestEmptyGridPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"three-site": func() { ThreeSiteEthernet(des.New(), 0) },
		"adsl":       func() { FourSiteADSL(des.New(), 0) },
		"local":      func() { LocalHeterogeneous(des.New(), 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: zero machines did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestNodeIDsAreRanks(t *testing.T) {
	g := ThreeSiteEthernet(des.New(), 5)
	for i, m := range g.Machines {
		if m.Node != i {
			t.Fatalf("machine %d has node id %d", i, m.Node)
		}
	}
}
