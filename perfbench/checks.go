package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"

	"repro/internal/experiment"
)

// defaultSeed is the seed whose digests are pinned in expectedDigest.
const defaultSeed = 7

// expectedDigest pins each workload's result at defaultSeed: the
// experiment.Result digest of its simulation, or for sweep the combined
// digest of all grid points in index order. The sharded workloads must
// reproduce the sequential engine bit for bit. The peak digest is the
// one a build registering client pools in sorted data-center order gives.
var expectedDigest = map[string]string{
	"daynight":      "6b78cab8a88cab312c618ebfd17089d3d737ec53b84d0fe0840197a27453e558",
	"sweep":         "f2f69600ac88eb8e81cff5ca6046c0414f42a448c0117a9778e9169980578f68",
	"chaos-sharded": "31dcf2d984d5865c893c59ac6fd6edb5c3ddc9ba3dc6fed332553ee535dacaa2",
	"peak":          "cd90c0f32e367ff9e75329d7c177f01581d49f2bb767663f0242d21b6ce3deab",
	"peak-sharded":  "cd90c0f32e367ff9e75329d7c177f01581d49f2bb767663f0242d21b6ce3deab",
}

// combine reduces per-simulation digests to one, in order.
func combine(digests []string) string {
	if len(digests) == 1 {
		return digests[0]
	}
	h := sha256.Sum256([]byte(strings.Join(digests, "\n")))
	return hex.EncodeToString(h[:])
}

// checkResult asserts the physical sanity of one simulation's outputs:
// every series sample finite and non-negative, CPU and WAN utilizations
// within [0, 1], every response time positive and finite.
func checkResult(res *experiment.Result) error {
	for _, k := range res.SeriesKeys() {
		util := strings.HasPrefix(k, "cpu:") || strings.HasPrefix(k, "link:")
		for i, v := range res.Series[k].V {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || (util && v > 1) {
				return fmt.Errorf("series %s sample %d = %v out of range", k, i, v)
			}
		}
	}
	for _, k := range res.Responses.Keys() {
		for i, v := range res.Responses.Series(k.Op, k.DC).V {
			if !(v > 0) || math.IsInf(v, 0) {
				return fmt.Errorf("response %s@%s sample %d = %v, want > 0", k.Op, k.DC, i, v)
			}
		}
	}
	return nil
}

// fluidMode is the fluid tier's mode series for the grid's fluid workload.
const fluidMode = "fluid:PDM:EU:mode"

// checkPoint asserts the grid-point contract of the sweep: the fluid tier
// engages on exactly the points with a fluid threshold, and a faulted
// point reports the configured injection and recovery instants exactly
// while a healthy (magnitude 0) point carries no fault report.
func checkPoint(pt experiment.PointResult) error {
	res := pt.Res
	for _, v := range pt.Values {
		switch v.Axis {
		case "workloads.PDM.EU.fluid":
			if engaged := fluidSamples(res) > 0; engaged != (v.Value > 0) {
				return fmt.Errorf("fluid threshold %v but fluid engaged = %v", v.Value, engaged)
			}
		case "faults.atlantic.magnitude":
			if err := checkFault(res, v.Value); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkFault asserts the Atlantic fault's report at the given magnitude:
// none when healthy (magnitude 0), otherwise a single injection applied
// and recovered at exactly the configured instants.
func checkFault(res *experiment.Result, magnitude float64) error {
	if magnitude == 0 {
		if res.Faults != nil {
			return fmt.Errorf("healthy point carries a fault report")
		}
		return nil
	}
	if res.Faults == nil || len(res.Faults.Injections) != 1 {
		return fmt.Errorf("magnitude %v run reports no single injection", magnitude)
	}
	inj := res.Faults.Injections[0]
	if inj.InjectedAt != faultAt || inj.RecoveredAt != faultAt+faultFor {
		return fmt.Errorf("fault applied at %v..%v, configured %v..%v",
			inj.InjectedAt, inj.RecoveredAt, faultAt, faultAt+faultFor)
	}
	return nil
}

// fluidSamples counts the collector snapshots the grid's fluid workload
// spent in fluid mode.
func fluidSamples(res *experiment.Result) int {
	s := res.Series[fluidMode]
	if s == nil {
		return 0
	}
	n := 0
	for _, v := range s.V {
		if v == 1 {
			n++
		}
	}
	return n
}
