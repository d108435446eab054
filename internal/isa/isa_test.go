package isa

import (
	"strings"
	"testing"
)

func TestClassString(t *testing.T) {
	cases := map[Class]string{
		IntALU:    "int",
		FPALU:     "fp",
		Load:      "load",
		Store:     "store",
		Class(99): "class(99)",
	}
	for c, want := range cases { //daelint:nondeterministic-ok order-free table-driven assertions
		if got := c.String(); got != want {
			t.Errorf("Class(%d).String() = %q, want %q", c, got, want)
		}
	}
}

func TestClassValid(t *testing.T) {
	for c := Class(0); c < Class(NumClasses); c++ {
		if !c.Valid() {
			t.Errorf("class %v should be valid", c)
		}
	}
	if Class(NumClasses).Valid() {
		t.Errorf("class %d should be invalid", NumClasses)
	}
}

func TestUnitString(t *testing.T) {
	if AU.String() != "AU" || DU.String() != "DU" {
		t.Fatalf("unit names wrong: %v %v", AU, DU)
	}
	if !strings.Contains(Unit(7).String(), "7") {
		t.Errorf("unknown unit should include number: %v", Unit(7))
	}
}

func TestOpKindStringsDistinct(t *testing.T) {
	seen := map[string]OpKind{}
	for k := OpKind(0); k < OpKind(NumOpKinds); k++ {
		if !k.Valid() {
			t.Fatalf("kind %d should be valid", k)
		}
		s := k.String()
		if prev, dup := seen[s]; dup {
			t.Errorf("duplicate op name %q for %d and %d", s, prev, k)
		}
		seen[s] = k
	}
	if OpKind(NumOpKinds).Valid() {
		t.Errorf("kind %d should be invalid", NumOpKinds)
	}
}

func TestSendConsumeSets(t *testing.T) {
	sends := []OpKind{OpLoadSend, OpPrefetch, OpStoreAddr}
	for _, k := range sends {
		if !k.IsSend() {
			t.Errorf("%v should be a send", k)
		}
	}
	consumes := []OpKind{OpLoadRecv, OpAccess}
	for _, k := range consumes {
		if !k.IsConsume() {
			t.Errorf("%v should be a consume", k)
		}
		if k.IsSend() {
			t.Errorf("%v must not be a send", k)
		}
	}
	for _, k := range []OpKind{OpInt, OpFP, OpCopy, OpStoreData, OpStoreAcc} {
		if k.IsSend() || k.IsConsume() {
			t.Errorf("%v should be neither send nor consume", k)
		}
	}
}

func TestCoreConfigDefaults(t *testing.T) {
	c := CoreConfig{Window: 32, IssueWidth: 4}
	if c.Unlimited() {
		t.Error("window 32 should not be unlimited")
	}
	if !(CoreConfig{Window: 0, IssueWidth: 1}).Unlimited() {
		t.Error("window 0 should mean unlimited")
	}
}

func TestCoreConfigValidate(t *testing.T) {
	if err := (CoreConfig{Window: 8, IssueWidth: 1}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if err := (CoreConfig{Window: 8, IssueWidth: 0}).Validate(); err == nil {
		t.Error("zero issue width accepted")
	}
}

func TestTimingValidateAndLatency(t *testing.T) {
	tm := DefaultTiming(60)
	if err := tm.Validate(); err != nil {
		t.Fatalf("default timing invalid: %v", err)
	}
	if tm.MD != 60 || tm.FPLat != DefaultFPLat || tm.CopyLat != DefaultCopyLat {
		t.Fatalf("default timing wrong: %+v", tm)
	}
	if tm.Latency(OpFP) != DefaultFPLat {
		t.Errorf("fp latency = %d", tm.Latency(OpFP))
	}
	if tm.Latency(OpCopy) != DefaultCopyLat {
		t.Errorf("copy latency = %d", tm.Latency(OpCopy))
	}
	for _, k := range []OpKind{OpInt, OpLoadSend, OpLoadRecv, OpPrefetch, OpAccess, OpStoreAddr, OpStoreData, OpStoreAcc} {
		if tm.Latency(k) != 1 {
			t.Errorf("latency(%v) = %d, want 1", k, tm.Latency(k))
		}
	}
	for _, bad := range []Timing{{MD: -1, FPLat: 3, CopyLat: 1}, {MD: 0, FPLat: 0, CopyLat: 1}, {MD: 0, FPLat: 3, CopyLat: 0}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("timing %+v accepted", bad)
		}
	}
}

func TestLineOf(t *testing.T) {
	if LineOf(0) != 0 || LineOf(63) != 0 || LineOf(64) != 1 || LineOf(129) != 2 {
		t.Errorf("LineOf wrong: %d %d %d %d", LineOf(0), LineOf(63), LineOf(64), LineOf(129))
	}
}

func TestDefaultWidthsSum(t *testing.T) {
	if DefaultAUWidth+DefaultDUWidth != DefaultSWSMWidth {
		t.Fatalf("combined issue width mismatch: %d+%d != %d", DefaultAUWidth, DefaultDUWidth, DefaultSWSMWidth)
	}
}
