package domination

import (
	"probprune/internal/geom"
	"probprune/internal/gf"
	"probprune/internal/uncertain"
)

// BoundsDecomposed computes the probability interval for PDom(A, B, R)
// with all three objects decomposed (the general Lemma 1 / Lemma 2
// form):
//
//	PDomLB = Σ_{A',B',R' : Dom(A',B',R')} P(A')·P(B')·P(R')
//	PDomUB = 1 − Σ_{A',B',R' : Dom(B',A',R')} P(A')·P(B')·P(R')
//
// Bounds obtained this way are tighter than Bounds but are NOT mutually
// independent across candidates (Section IV-A): they must not be fed
// into a generating function directly. The iterative algorithm instead
// fixes one (B', R') pair at a time and calls Bounds per pair (Lemma
// 5 / Section IV-E), so no query path uses this form; the tests keep it
// as the Lemma 1/2 reference that Bounds is checked against.
func BoundsDecomposed(n geom.Norm, crit geom.Criterion, aParts, bParts, rParts []uncertain.Partition) gf.Interval {
	lb, notUB := 0.0, 0.0
	for _, bp := range bParts {
		for _, rp := range rParts {
			w := bp.Prob * rp.Prob
			for _, ap := range aParts {
				if crit.Decide(n, ap.MBR, bp.MBR, rp.MBR) {
					lb += w * ap.Prob
				} else if crit.Decide(n, bp.MBR, ap.MBR, rp.MBR) {
					notUB += w * ap.Prob
				}
			}
		}
	}
	return clampInterval(lb, 1-notUB)
}
