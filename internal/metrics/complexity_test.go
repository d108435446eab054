package metrics

import (
	"testing"
	"testing/quick"
)

func TestDefaultDelayNormalization(t *testing.T) {
	d := DefaultDelayModel.Delay(32, 4)
	if d < 0.95 || d > 1.05 {
		t.Fatalf("32-entry 4-wide delay = %.3f, want ~1.0", d)
	}
}

func TestDelayGrowsWithWindowAndWidth(t *testing.T) {
	f := func(w8, iw3 uint8) bool {
		w := int(w8%200) + 4
		iw := int(iw3%8) + 1
		m := DefaultDelayModel
		return m.Delay(w+1, iw) > m.Delay(w, iw) && m.Delay(w, iw+1) > m.Delay(w, iw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDelaySuperlinearInWindow(t *testing.T) {
	// Quadratic term: doubling the window more than doubles the marginal
	// delay increase at large sizes.
	m := DefaultDelayModel
	d64, d128, d256 := m.Delay(64, 9), m.Delay(128, 9), m.Delay(256, 9)
	if d256-d128 <= d128-d64 {
		t.Fatalf("delay not superlinear: %f %f %f", d64, d128, d256)
	}
}

func TestRelativeClock(t *testing.T) {
	m := DefaultDelayModel
	if rc := m.RelativeClock(64, 9, 64, 9); rc != 1.0 {
		t.Fatalf("self-relative clock = %f", rc)
	}
	// The paper's scenario: DM's widest unit is the 5-wide DU with a
	// 64-entry window; the SWSM needs ~3x the window at 9-wide.
	adv := m.RelativeClock(192, 9, 64, 5)
	if adv <= 1.5 {
		t.Fatalf("expected a substantial clock advantage, got %.2f", adv)
	}
	// And the advantage grows with the equivalent-window ratio.
	if m.RelativeClock(256, 9, 64, 5) <= adv {
		t.Fatal("advantage should grow with the equivalent window")
	}
}
