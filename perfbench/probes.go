package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"daesim/internal/engine"
	"daesim/internal/experiments"
	"daesim/internal/machine"
	"daesim/internal/partition"
	"daesim/internal/sweep"
	"daesim/internal/workloads"
)

// The probes time single layers from outside, by calling their public
// functions on the inputs a pass uses. They run in traced runs only,
// after the passes.

// buildProbe is the workload-build, lowering and fingerprint cost of a
// pass's distinct inputs: every workload built once, and lowered once
// per partition policy the pass uses.
type buildProbe struct {
	builds, suites     int
	buildMs, lowerMs   float64
	lowerAllocMB, fpMs float64
}

func probeBuilds(names []string, policies []partition.Policy) (buildProbe, error) {
	var bp buildProbe
	var ms0, ms1 runtime.MemStats
	for _, name := range names {
		t0 := time.Now()
		tr, err := workloads.Build(name, 1)
		if err != nil {
			return bp, err
		}
		bp.buildMs += msSince(t0)
		bp.builds++
		for _, pol := range policies {
			runtime.ReadMemStats(&ms0)
			t0 = time.Now()
			suite, err := machine.NewSuite(tr, pol)
			if err != nil {
				return bp, err
			}
			bp.lowerMs += msSince(t0)
			runtime.ReadMemStats(&ms1)
			bp.lowerAllocMB += float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
			bp.suites++
			t0 = time.Now()
			suite.Fingerprint()
			bp.fpMs += msSince(t0)
		}
	}
	return bp, nil
}

// keyedResult is one simulated point under its persistent store key.
type keyedResult struct {
	key string
	res *engine.Result
}

// engineProbe runs the paper's Figure 4-6 points (every window of
// experiments.FigureWindows, MD 0 and 60, both machines, for FLO52Q, MDG
// and TRACK) through Suite.RunWith on one caller-held Sim, and reports
// simulated machine operations per host second for each machine. It
// returns the results under their store keys for the store probe.
func engineProbe() (dmMops, swsmMops float64, keyed []keyedResult, err error) {
	sim := engine.NewSim()
	var ops [2]int64
	var dur [2]time.Duration
	for _, w := range paperNumbers {
		tr, err := workloads.Build(w.name, 1)
		if err != nil {
			return 0, 0, nil, err
		}
		suite, err := machine.NewSuite(tr, partition.Classic)
		if err != nil {
			return 0, 0, nil, err
		}
		prefix := engine.Version + "|" + suite.Fingerprint() + "|"
		for ki, kind := range []machine.Kind{machine.DM, machine.SWSM} {
			for _, md := range []int{experiments.MDZero, experiments.MDFull} {
				for _, win := range experiments.FigureWindows {
					p := machine.Params{Window: win, MD: md}
					t0 := time.Now()
					res, err := suite.RunWith(sim, kind, p)
					if err != nil {
						return 0, 0, nil, err
					}
					dur[ki] += time.Since(t0)
					ops[ki] += int64(res.Ops)
					pk, _ := p.CacheKey(kind)
					keyed = append(keyed, keyedResult{prefix + pk, res})
				}
			}
		}
	}
	mops := func(i int) float64 { return float64(ops[i]) / 1e6 / dur[i].Seconds() }
	return mops(0), mops(1), keyed, nil
}

// storeProbe installs every result into a fresh store under dir with
// Store.Put, reads each back with Store.Get, checks the round trip, and
// returns the median latency of each call in microseconds.
func storeProbe(dir string, keyed []keyedResult) (getUs, putUs float64, err error) {
	store, err := sweep.OpenStore(dir)
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	var puts, gets []float64
	for _, kr := range keyed {
		t0 := time.Now()
		store.Put(kr.key, kr.res)
		puts = append(puts, usSince(t0))
	}
	for _, kr := range keyed {
		t0 := time.Now()
		got, ok := store.Get(kr.key)
		gets = append(gets, usSince(t0))
		if !ok {
			return 0, 0, fmt.Errorf("store probe: key %q missed after Put", kr.key)
		}
		a, _ := json.Marshal(kr.res)
		b, _ := json.Marshal(got)
		if !bytes.Equal(a, b) {
			return 0, 0, fmt.Errorf("store probe: key %q read back a different result", kr.key)
		}
	}
	if st := store.Stats(); st.WriteErrors != 0 || st.Corrupt != 0 {
		return 0, 0, fmt.Errorf("store probe: %d write errors, %d corrupt reads", st.WriteErrors, st.Corrupt)
	}
	return median(gets), median(puts), nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
func usSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Microsecond) }
