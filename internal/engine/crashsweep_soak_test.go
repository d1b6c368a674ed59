//go:build soak

package engine

import "testing"

// TestCrashPointSweep is the full crash-point sweep: every boundary
// injection of every rank at every iteration, and a transport-level death
// after every send of every rank. It compiles only under the soak tag; the
// nightly race-full job runs it.
func TestCrashPointSweep(t *testing.T) {
	want, sends := sweepReference(t)
	var points []sweepPoint
	for r := 0; r < sweepRanks; r++ {
		for iter := 0; iter < sweepIters; iter++ {
			points = append(points, boundaryPoints(r, iter)...)
		}
		for k := int64(1); k <= sends[r]; k++ {
			points = append(points, killPoint(r, k))
		}
	}
	for _, p := range points {
		t.Run(p.name, func(t *testing.T) { checkSweepPoint(t, p, want) })
	}
}
