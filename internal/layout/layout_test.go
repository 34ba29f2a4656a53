package layout

import (
	"testing"

	"postopc/internal/geom"
)

func invCell() *Cell {
	c := &Cell{Name: "TINV"}
	c.Box = geom.R(0, 0, 680, 2600)
	c.AddRect(LayerDiffusion, geom.R(100, 400, 580, 900))   // ndiff
	c.AddRect(LayerDiffusion, geom.R(100, 1700, 580, 2200)) // pdiff
	c.AddRect(LayerPoly, geom.R(295, 290, 385, 2310))
	c.AddRect(LayerMetal1, geom.R(0, 0, 680, 240))
	c.Gates = append(c.Gates,
		GateSite{Name: "MN0", Pin: "A", Kind: NMOS, Channel: geom.R(295, 400, 385, 900)},
		GateSite{Name: "MP0", Pin: "A", Kind: PMOS, Channel: geom.R(295, 1700, 385, 2200)},
	)
	c.Box = geom.R(0, 0, 680, 2600)
	return c
}

func TestLayerString(t *testing.T) {
	if LayerPoly.String() != "poly" {
		t.Fatalf("poly name = %s", LayerPoly)
	}
	l, err := ParseLayer("metal1")
	if err != nil || l != LayerMetal1 {
		t.Fatalf("ParseLayer = %v, %v", l, err)
	}
	if _, err := ParseLayer("bogus"); err == nil {
		t.Fatal("expected error for unknown layer")
	}
	if Layer(200).String() == "" {
		t.Fatal("out-of-range layer must still stringify")
	}
}

func TestGateSiteDims(t *testing.T) {
	g := invCell().Gates[0]
	if g.L() != 90 || g.W() != 500 {
		t.Fatalf("L=%d W=%d", g.L(), g.W())
	}
}

func TestCellShapesOn(t *testing.T) {
	c := invCell()
	if n := len(c.ShapesOn(LayerDiffusion)); n != 2 {
		t.Fatalf("diffusion shapes = %d", n)
	}
	if n := len(c.ShapesOn(LayerVia1)); n != 0 {
		t.Fatalf("via shapes = %d", n)
	}
}

func TestOrientApply(t *testing.T) {
	box := geom.R(0, 0, 100, 200)
	r := geom.R(10, 20, 30, 50)
	// R0: pure translation.
	got := R0.Apply(r, box, geom.Pt(1000, 2000))
	if got != geom.R(1010, 2020, 1030, 2050) {
		t.Fatalf("R0 = %v", got)
	}
	// MX: flip inside the box (y -> 200 - y), then translate.
	got = MX.Apply(r, box, geom.Pt(0, 0))
	if got != geom.R(10, 150, 30, 180) {
		t.Fatalf("MX = %v", got)
	}
	// Flip twice = identity.
	got = MX.Apply(MX.Apply(r, box, geom.Pt(0, 0)), box, geom.Pt(0, 0))
	if got != r {
		t.Fatalf("MX∘MX = %v", got)
	}
}

func TestInstanceTransforms(t *testing.T) {
	c := invCell()
	in := Instance{Name: "u1", Cell: c, Origin: geom.Pt(5000, 2600), Orient: MX}
	b := in.Bounds()
	if b != geom.R(5000, 2600, 5680, 5200) {
		t.Fatalf("bounds = %v", b)
	}
	sites := in.GateSites()
	if len(sites) != 2 {
		t.Fatalf("sites = %d", len(sites))
	}
	if sites[0].Name != "u1/MN0" {
		t.Fatalf("site name = %s", sites[0].Name)
	}
	// The NMOS channel (low in the cell) must land high after MX flip.
	n := sites[0].Channel
	p := sites[1].Channel
	if n.Y0 <= p.Y0 {
		t.Fatalf("MX flip should put NMOS above PMOS: n=%v p=%v", n, p)
	}
	// Gate dimensions survive the transform.
	if sites[0].L() != 90 || sites[0].W() != 500 {
		t.Fatalf("transformed L=%d W=%d", sites[0].L(), sites[0].W())
	}
}

func buildChip(t testing.TB) *Chip {
	t.Helper()
	c := invCell()
	ch := &Chip{Name: "testchip"}
	for i := 0; i < 4; i++ {
		or := R0
		if i%2 == 1 {
			or = MX
		}
		ch.AddInstance(
			// Instances in one row.
			fmtName(i), c, geom.Pt(geom.Coord(i)*680, 0), or)
	}
	ch.BuildIndex()
	return ch
}

func fmtName(i int) string { return string(rune('a'+i)) + "0" }

func TestChipWindowShapes(t *testing.T) {
	ch := buildChip(t)
	// Window over the second instance only.
	w := geom.R(700, 0, 1340, 2600)
	polys := ch.WindowShapes(LayerPoly, w)
	if len(polys) != 1 {
		t.Fatalf("poly shapes in window = %d", len(polys))
	}
	if !w.ContainsRect(polys[0]) {
		t.Fatal("window shape not clipped")
	}
	// Window spanning all: 4 poly strips.
	all := ch.WindowShapes(LayerPoly, ch.Die)
	if len(all) != 4 {
		t.Fatalf("total poly strips = %d", len(all))
	}
}

func TestChipInstancesIn(t *testing.T) {
	ch := buildChip(t)
	got := ch.InstancesIn(geom.R(0, 0, 10, 10))
	if len(got) != 1 || got[0].Name != "a0" {
		t.Fatalf("instances = %v", names(got))
	}
	got = ch.InstancesIn(ch.Die)
	if len(got) != 4 {
		t.Fatalf("all instances = %d", len(got))
	}
	// Deterministic sorted order.
	for i := 1; i < len(got); i++ {
		if got[i-1].Name >= got[i].Name {
			t.Fatal("instances not sorted")
		}
	}
}

func names(ins []*Instance) []string {
	var out []string
	for _, in := range ins {
		out = append(out, in.Name)
	}
	return out
}

func TestChipGateSitesAndFind(t *testing.T) {
	ch := buildChip(t)
	sites := ch.AllGateSites()
	if len(sites) != 8 {
		t.Fatalf("gate sites = %d", len(sites))
	}
	if in := ch.FindInstance("c0"); in == nil || in.Name != "c0" {
		t.Fatal("FindInstance failed")
	}
	if in := ch.FindInstance("zz"); in != nil {
		t.Fatal("FindInstance ghost")
	}
}
