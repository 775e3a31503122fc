package server

import (
	"errors"
	"testing"

	"starperf/internal/cfgerr"
)

// TestTopoTableInternsAndBounds: a hit returns the very topology of
// the first build; the byte budget evicts least-recently-used
// entries; a topology above a quarter of the budget and a failed
// build are built per call and never retained.
func TestTopoTableInternsAndBounds(t *testing.T) {
	s5 := TopoSpec{Kind: "star", N: 5}
	top, err := newTopoTable(topoBudget).topology(s5)
	if err != nil {
		t.Fatal(err)
	}
	one := top.(footprinter).Footprint() + entryOverhead
	tab := newTopoTable(8 * one)
	a, _ := tab.topology(s5)
	if b, _ := tab.topology(s5); b != a {
		t.Fatal("second lookup rebuilt the topology")
	}
	var last TopoSpec
	for k := 2; k <= 300; k += 2 {
		last = TopoSpec{Kind: "torus", K: k, Dim: 1}
		if _, err := tab.topology(last); err != nil {
			t.Fatal(err)
		}
	}
	if tab.bytes > tab.budget {
		t.Fatalf("table holds %d bytes over its %d budget", tab.bytes, tab.budget)
	}
	if _, ok := tab.index[s5]; ok {
		t.Fatal("least recently used entry survived the budget")
	}
	if _, ok := tab.index[last]; !ok {
		t.Fatal("most recent entry evicted")
	}
	big := TopoSpec{Kind: "star", N: 6}
	x, _ := tab.topology(big)
	if x.(footprinter).Footprint() <= tab.budget/4 {
		t.Fatal("test needs an entry above a quarter of the budget")
	}
	if y, _ := tab.topology(big); x == y {
		t.Fatal("oversized entry retained")
	}
	bad := TopoSpec{Kind: "star", N: 11}
	if _, err := tab.topology(bad); !errors.Is(err, cfgerr.ErrInvalid) {
		t.Fatalf("S11 topology: err = %v, want ErrInvalidConfig", err)
	}
	if _, ok := tab.index[bad]; ok {
		t.Fatal("failed build retained")
	}
	mesh := TopoSpec{Kind: "mesh", K: 4, Dim: 2}
	if _, _, err := tab.modelInputs(mesh); !errors.Is(err, cfgerr.ErrInvalid) {
		t.Fatalf("mesh model inputs: err = %v, want ErrInvalidConfig", err)
	}
	if _, err := tab.topology(mesh); err != nil {
		t.Fatalf("mesh topology: %v", err)
	}
}
