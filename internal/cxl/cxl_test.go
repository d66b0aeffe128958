package cxl

import "testing"

func TestOpcodeProperties(t *testing.T) {
	if MemRd.HasData() || !MemWr.HasData() || !MemData.HasData() || Cmp.HasData() {
		t.Fatal("payload classification")
	}
	if MemData.String() != "MemData" || CmpE.String() != "Cmp-E" {
		t.Fatal("mnemonics")
	}
}

// TestBytesPerMessage pins the wire bytes the FlexBus byte server charges
// per message: a quarter of a 68-byte protocol flit for the header, plus a
// whole all-data flit for a payload.
func TestBytesPerMessage(t *testing.T) {
	for _, c := range []struct {
		op   Opcode
		want float64
	}{
		{MemRd, 17},   // M2S Req
		{MemWr, 85},   // M2S RwD
		{MemData, 85}, // S2M DRS
		{Cmp, 17},     // S2M NDR
	} {
		if got := BytesPerMessage(c.op); got != c.want {
			t.Errorf("BytesPerMessage(%v) = %v, want %v", c.op, got, c.want)
		}
	}
}

func TestClassifyLoad(t *testing.T) {
	cases := []struct {
		occ  float64
		want DevLoad
	}{
		{0, LightLoad},
		{30, LightLoad},
		{40, OptimalLoad},
		{69, OptimalLoad},
		{75, ModerateOverload},
		{95, SevereOverload},
		{100, SevereOverload},
	}
	for _, c := range cases {
		if got := ClassifyLoad(c.occ, 100); got != c.want {
			t.Errorf("ClassifyLoad(%v) = %v, want %v", c.occ, got, c.want)
		}
	}
	if ClassifyLoad(5, 0) != LightLoad {
		t.Fatal("zero capacity must be light")
	}
	if SevereOverload.String() != "Severe Overload" {
		t.Fatal("class name")
	}
}

func TestLoadTrackerIntegration(t *testing.T) {
	tr := NewLoadTracker(10)
	tr.Update(0, 2)  // light from 0
	tr.Update(50, 5) // 7/10 -> moderate from 50
	tr.Update(80, 3) // 10/10 -> severe from 80
	tr.Advance(100)
	if got := tr.Cycles(LightLoad); got != 50 {
		t.Fatalf("light cycles = %d", got)
	}
	if got := tr.Cycles(ModerateOverload); got != 30 {
		t.Fatalf("moderate cycles = %d", got)
	}
	if got := tr.Cycles(SevereOverload); got != 20 {
		t.Fatalf("severe cycles = %d", got)
	}
	if tr.Dominant() != LightLoad {
		t.Fatalf("dominant = %v", tr.Dominant())
	}
	if tr.Current() != SevereOverload {
		t.Fatalf("current = %v", tr.Current())
	}
	// Draining below zero clamps.
	tr.Update(110, -99)
	if tr.Current() != LightLoad {
		t.Fatal("negative occupancy not clamped")
	}
}
