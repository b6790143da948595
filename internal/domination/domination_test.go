package domination

import (
	"math/rand"
	"testing"

	"probprune/internal/geom"
	"probprune/internal/mc"
	"probprune/internal/uncertain"
)

func randObj(rng *rand.Rand, id, n int, cx, cy, ext float64) *uncertain.Object {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{cx + (rng.Float64()-0.5)*ext, cy + (rng.Float64()-0.5)*ext}
	}
	o, err := uncertain.NewObject(id, pts)
	if err != nil {
		panic(err)
	}
	return o
}

// Property: for random uncertain objects, the Lemma 3 bounds at every
// decomposition level contain the exact PDom, and they tighten
// monotonically with the level.
func TestBoundsContainExactPDomAndTighten(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	for trial := 0; trial < 30; trial++ {
		a := randObj(rng, 0, 64, rng.Float64()*4, rng.Float64()*4, 2)
		b := randObj(rng, 1, 64, rng.Float64()*4, rng.Float64()*4, 2)
		r := randObj(rng, 2, 64, rng.Float64()*4, rng.Float64()*4, 2)
		exact := mc.PDom(geom.L2, a, b, r)
		tree := uncertain.NewDecompTree(a, 0)
		prevWidth := 2.0
		for level := 0; level <= 7; level++ {
			iv := Bounds(geom.L2, geom.Optimal, tree.PartitionsAtLevel(level), b.MBR, r.MBR)
			if !iv.Contains(exact, 1e-9) {
				t.Fatalf("trial %d level %d: exact %g outside [%g, %g]",
					trial, level, exact, iv.LB, iv.UB)
			}
			if iv.Width() > prevWidth+1e-9 {
				t.Fatalf("trial %d level %d: bounds widened %g -> %g",
					trial, level-1, prevWidth, iv.Width())
			}
			prevWidth = iv.Width()
		}
	}
}

// Property: the general triple-decomposition bounds (Lemma 1/2) also
// contain the exact value and are at least as tight as the Lemma 3
// bounds at the same level.
func TestBoundsDecomposedTighterAndSound(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	strictly := 0
	for trial := 0; trial < 20; trial++ {
		a := randObj(rng, 0, 32, rng.Float64()*3, rng.Float64()*3, 2)
		b := randObj(rng, 1, 32, rng.Float64()*3, rng.Float64()*3, 2)
		r := randObj(rng, 2, 32, rng.Float64()*3, rng.Float64()*3, 2)
		exact := mc.PDom(geom.L2, a, b, r)
		ta := uncertain.NewDecompTree(a, 0)
		tb := uncertain.NewDecompTree(b, 0)
		trr := uncertain.NewDecompTree(r, 0)
		for level := 0; level <= 4; level++ {
			ap := ta.PartitionsAtLevel(level)
			single := Bounds(geom.L2, geom.Optimal, ap, b.MBR, r.MBR)
			triple := BoundsDecomposed(geom.L2, geom.Optimal, ap,
				tb.PartitionsAtLevel(level), trr.PartitionsAtLevel(level))
			if !triple.Contains(exact, 1e-9) {
				t.Fatalf("trial %d level %d: exact %g outside triple [%g, %g]",
					trial, level, exact, triple.LB, triple.UB)
			}
			if triple.LB < single.LB-1e-9 || triple.UB > single.UB+1e-9 {
				t.Fatalf("trial %d level %d: triple [%g, %g] looser than single [%g, %g]",
					trial, level, triple.LB, triple.UB, single.LB, single.UB)
			}
			if triple.Width() < single.Width()-1e-9 {
				strictly++
			}
		}
	}
	if strictly == 0 {
		t.Error("triple decomposition was never strictly tighter")
	}
}

func TestBoundsConvergeToExactAtFullDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	// Small sample counts so full depth reaches single-sample leaves;
	// with B and R also fully decomposed the bounds must collapse to
	// the exact probability (up to ties, which we avoid by continuous
	// random coordinates).
	a := randObj(rng, 0, 8, 0, 0, 2)
	b := randObj(rng, 1, 8, 1.5, 0, 2)
	r := randObj(rng, 2, 8, 0.5, 1, 2)
	exact := mc.PDom(geom.L2, a, b, r)
	ta := uncertain.NewDecompTree(a, 0)
	tb := uncertain.NewDecompTree(b, 0)
	trr := uncertain.NewDecompTree(r, 0)
	iv := BoundsDecomposed(geom.L2, geom.Optimal, ta.PartitionsAtLevel(6),
		tb.PartitionsAtLevel(6), trr.PartitionsAtLevel(6))
	if iv.Width() > 1e-9 {
		t.Fatalf("bounds did not collapse at full depth: [%g, %g]", iv.LB, iv.UB)
	}
	if !iv.Contains(exact, 1e-9) {
		t.Fatalf("collapsed bound %g misses exact %g", iv.LB, exact)
	}
}

func TestClassify(t *testing.T) {
	mk := func(x0, x1 float64) geom.Rect {
		r, err := geom.NewRect(geom.Point{x0, 0}, geom.Point{x1, 1})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a := mk(0, 1)
	b := mk(10, 11)
	r := mk(1.5, 2)
	if got := Classify(geom.L2, geom.Optimal, a, b, r); got != DominatesTarget {
		t.Errorf("Classify near = %v, want DominatesTarget", got)
	}
	if got := Classify(geom.L2, geom.Optimal, b, a, r); got != DominatedByTarget {
		t.Errorf("Classify far = %v, want DominatedByTarget", got)
	}
	c := mk(1.4, 2.4) // overlaps the reference's distance range
	if got := Classify(geom.L2, geom.Optimal, c, a, r); got != Unknown {
		t.Errorf("Classify ambiguous = %v, want Unknown", got)
	}
}

func TestBoundsWithMinMaxCriterionAreLooserButSound(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 20; trial++ {
		a := randObj(rng, 0, 32, rng.Float64()*3, rng.Float64()*3, 2)
		b := randObj(rng, 1, 32, rng.Float64()*3, rng.Float64()*3, 2)
		r := randObj(rng, 2, 32, rng.Float64()*3, rng.Float64()*3, 2)
		exact := mc.PDom(geom.L2, a, b, r)
		tree := uncertain.NewDecompTree(a, 0)
		for level := 0; level <= 4; level++ {
			parts := tree.PartitionsAtLevel(level)
			opt := Bounds(geom.L2, geom.Optimal, parts, b.MBR, r.MBR)
			mm := Bounds(geom.L2, geom.MinMax, parts, b.MBR, r.MBR)
			if !mm.Contains(exact, 1e-9) {
				t.Fatalf("min/max bounds unsound at level %d", level)
			}
			if opt.LB < mm.LB-1e-9 || opt.UB > mm.UB+1e-9 {
				t.Fatalf("optimal bounds looser than min/max at level %d", level)
			}
		}
	}
}

// TestClampInterval: float rounding in the mass sums never yields an
// interval outside [0, 1] or with UB < LB.
func TestClampInterval(t *testing.T) {
	for _, c := range []struct{ lb, ub, wantLB, wantUB float64 }{
		{-1e-17, 0.5, 0, 0.5},
		{0.2, 1 + 1e-15, 0.2, 1},
		{0.6, 0.6 - 1e-16, 0.6, 0.6},
		{0.3, 0.7, 0.3, 0.7},
	} {
		if iv := clampInterval(c.lb, c.ub); iv.LB != c.wantLB || iv.UB != c.wantUB {
			t.Errorf("clampInterval(%g, %g) = %+v, want [%g, %g]", c.lb, c.ub, iv, c.wantLB, c.wantUB)
		}
	}
}
