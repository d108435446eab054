package main

import (
	"strings"
	"testing"

	"daesim/internal/machine"
)

func TestRunDM(t *testing.T) {
	var b strings.Builder
	err := run(&b, "TRACK", "DM", "classic", machine.Params{Window: 32, MD: 60, CollectESW: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"workload   TRACK", "machine    DM", "partition", "cycles", "LHE", "AU ", "DU ", "esw"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunSWSM(t *testing.T) {
	var b strings.Builder
	err := run(&b, "QCD", "swsm", "classic", machine.Params{Window: 16, MD: 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "machine    SWSM") {
		t.Errorf("SWSM header missing:\n%s", out)
	}
	if strings.Contains(out, "partition  AU") {
		t.Error("SWSM output should not print a partition summary")
	}
	if strings.Contains(out, "esw") {
		t.Error("esw line printed without -esw")
	}
}

func TestRunErrors(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "NOPE", "DM", "classic", machine.Params{Window: 8}, 1); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := run(&b, "TRACK", "VLIW", "classic", machine.Params{Window: 8}, 1); err == nil {
		t.Error("unknown machine accepted")
	}
	if err := run(&b, "TRACK", "DM", "magic", machine.Params{Window: 8}, 1); err == nil {
		t.Error("unknown policy accepted")
	}
}
