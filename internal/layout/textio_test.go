package layout

import (
	"bytes"
	"strings"
	"testing"

	"postopc/internal/geom"
)

func TestChipRoundTrip(t *testing.T) {
	ch := buildChip(t)
	var buf bytes.Buffer
	if err := WriteChip(&buf, ch); err != nil {
		t.Fatal(err)
	}
	f, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Chip == nil {
		t.Fatal("chip missing after round trip")
	}
	if f.Chip.Name != ch.Name || f.Chip.Die != ch.Die {
		t.Fatalf("chip header: %s %v", f.Chip.Name, f.Chip.Die)
	}
	if len(f.Chip.Instances) != len(ch.Instances) {
		t.Fatalf("instances %d != %d", len(f.Chip.Instances), len(ch.Instances))
	}
	for i := range ch.Instances {
		a, b := &ch.Instances[i], &f.Chip.Instances[i]
		if a.Name != b.Name || a.Origin != b.Origin || a.Orient != b.Orient ||
			a.Cell.Name != b.Cell.Name {
			t.Fatalf("instance %d differs: %+v vs %+v", i, a, b)
		}
	}
	// Geometry identical: same window flattening.
	w := ch.Die
	if len(ch.WindowShapes(LayerPoly, w)) != len(f.Chip.WindowShapes(LayerPoly, w)) {
		t.Fatal("flattened geometry differs")
	}
	// Gate sites identical.
	ga, gb := ch.AllGateSites(), f.Chip.AllGateSites()
	if len(ga) != len(gb) {
		t.Fatalf("gate sites %d != %d", len(ga), len(gb))
	}
	for i := range ga {
		if ga[i] != gb[i] {
			t.Fatalf("gate site %d: %+v vs %+v", i, ga[i], gb[i])
		}
	}
}

func TestCellRoundTrip(t *testing.T) {
	c := invCell()
	var buf bytes.Buffer
	if err := WriteCell(&buf, c); err != nil {
		t.Fatal(err)
	}
	f, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Cells) != 1 || f.Chip != nil {
		t.Fatalf("parsed %d cells, chip=%v", len(f.Cells), f.Chip)
	}
	got := f.Cells[0]
	if got.Name != c.Name || got.Box != c.Box {
		t.Fatalf("cell header %s %v", got.Name, got.Box)
	}
	if len(got.Shapes) != len(c.Shapes) || len(got.Gates) != len(c.Gates) {
		t.Fatal("cell contents differ")
	}
	for i := range c.Gates {
		if got.Gates[i] != c.Gates[i] {
			t.Fatalf("gate %d: %+v vs %+v", i, got.Gates[i], c.Gates[i])
		}
	}
}

// readCommentsSrc is a minimal cell with a comment line.
const readCommentsSrc = `plf 1
# a comment
cell C box 0 0 10 10
  rect poly 1 1 2 2
endcell
`

func TestReadComments(t *testing.T) {
	f, err := Read(strings.NewReader(readCommentsSrc))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Cells) != 1 || len(f.Cells[0].Shapes) != 1 {
		t.Fatalf("parsed %+v", f)
	}
}

// readErrorCases are malformed .plf inputs that Read must reject.
var readErrorCases = []string{
	"plf 2",
	"rect poly 0 0 1 1",
	"cell A box 0 0 x 10\nendcell",
	"cell A box 0 0 10 10\n rect mystery 0 0 1 1\nendcell",
	"cell A box 0 0 10 10\n gate G A quantum 0 0 1 1\nendcell",
	"cell A box 0 0 10 10",
	"cell A box 0 0 10 10\nendcell\ncell A box 0 0 10 10\nendcell",
	"chip c die 0 0 10 10\n inst u1 NOPE 0 0 R0\nendchip",
	"chip c die 0 0 10 10\n inst u1",
	"chip c die 0 0 10 10",
	"endcell",
	"endchip",
	"bogus line here",
	"cell A box 0 0 10 10\n gate G A nmos 0 0 1 1 extra\nendcell",
	"chip c die 0 0 10 10\n inst u1 C 0 0 R9\nendchip",
}

func TestReadErrors(t *testing.T) {
	for i, src := range readErrorCases {
		if _, err := Read(strings.NewReader(src)); err == nil {
			t.Errorf("case %d accepted: %q", i, src)
		}
	}
}

// FuzzLayoutRead feeds arbitrary bytes to Read: malformed input must come
// back as an error, never a panic. The seeds are the round-trip, comment
// and error inputs of the tests above. A successful parse must also
// survive a write and a second read.
func FuzzLayoutRead(f *testing.F) {
	var chip, cell bytes.Buffer
	if err := WriteChip(&chip, buildChip(f)); err != nil {
		f.Fatal(err)
	}
	if err := WriteCell(&cell, invCell()); err != nil {
		f.Fatal(err)
	}
	f.Add(chip.Bytes())
	f.Add(cell.Bytes())
	f.Add([]byte(readCommentsSrc))
	for _, src := range readErrorCases {
		f.Add([]byte(src))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		lf, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		for _, c := range lf.Cells {
			buf.Reset()
			if err := WriteCell(&buf, c); err != nil {
				t.Fatal(err)
			}
			if _, err := Read(&buf); err != nil {
				t.Fatalf("re-reading written cell %q: %v", c.Name, err)
			}
		}
		if lf.Chip != nil {
			buf.Reset()
			if err := WriteChip(&buf, lf.Chip); err != nil {
				t.Fatal(err)
			}
			if _, err := Read(&buf); err != nil {
				t.Fatalf("re-reading written chip: %v", err)
			}
		}
	})
}

func TestSVGOutput(t *testing.T) {
	ch := buildChip(t)
	svg := NewSVG(ch.Die, 400)
	svg.AddChip(ch)
	svg.AddOverlay([]geom.Polygon{geom.R(10, 10, 200, 200).Polygon()},
		"fill:none;stroke:#000;stroke-width:1")
	var buf bytes.Buffer
	if err := svg.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<svg", "</svg>", "<polygon", "<rect"} {
		if !strings.Contains(out, want) {
			t.Fatalf("SVG missing %q:\n%.300s", want, out)
		}
	}
	// Empty overlays and unknown layers don't break rendering.
	svg2 := NewSVG(geom.R(0, 0, 100, 100), 0)
	svg2.AddRects(Layer(250), []geom.Rect{geom.R(0, 0, 10, 10)})
	svg2.AddOverlay(nil, "fill:none")
	if err := svg2.Write(&buf); err != nil {
		t.Fatal(err)
	}
}
