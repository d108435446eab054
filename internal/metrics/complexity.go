package metrics

// Window-issue-logic complexity model after Palacharla, Jouppi & Smith,
// "Complexity-Effective Superscalar Processors" (ISCA 1997) — the paper's
// reference [11] and the basis of its closing argument: the SWSM needs a
// 2-4x larger window to match the DM, and window logic delay grows
// quadratically with window size and issue width, so the DM buys its
// performance with a faster clock as well as fewer slots.
//
// Palacharla et al. fit wakeup and selection delays as quadratics in
// window size W and issue width IW. The absolute coefficients are
// technology-specific; for comparing configurations only the *shape*
// matters, so WindowDelay uses normalized coefficients calibrated to
// their observation that wakeup+select dominates and scales as
// c0 + c1*(W+IW) + c2*(W*IW) + c3*W^2 (the quadratic term driven by the
// tag-match fan-out across the window).

// DelayModel holds the quadratic coefficients. Units are arbitrary
// (relative delay); only ratios between configurations are meaningful.
type DelayModel struct {
	C0, C1, C2, C3 float64
}

// DefaultDelayModel approximates the 0.35um fits of Palacharla et al.,
// normalized so that a 32-entry, 4-wide window has delay 1.0.
var DefaultDelayModel = DelayModel{C0: 0.222, C1: 0.00887, C2: 0.0016, C3: 0.000248}

// Delay returns the relative window-logic (wakeup+select) delay for a
// window of the given size and issue width.
func (m DelayModel) Delay(window, issueWidth int) float64 {
	w, iw := float64(window), float64(issueWidth)
	return m.C0 + m.C1*(w+iw) + m.C2*w*iw + m.C3*w*w
}

// RelativeClock returns how much slower a machine with (window, width)
// must clock than a reference machine with (refWindow, refWidth),
// assuming the window logic sets the critical path (the paper's §1
// premise). A value of 1.5 means the clock period is 1.5x longer.
func (m DelayModel) RelativeClock(window, issueWidth, refWindow, refWidth int) float64 {
	return m.Delay(window, issueWidth) / m.Delay(refWindow, refWidth)
}
