package flow

// Concurrency and determinism coverage for the parallel hot loops: tiled
// ORC, gate extraction, and the Flow's lazily built members. Run with
// -race to exercise the synchronization (see `make check`).

import (
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"postopc/internal/geom"
	"postopc/internal/litho"
	"postopc/internal/netlist"
	"postopc/internal/obs"
	"postopc/internal/opc"
	"postopc/internal/pdk"
	"postopc/internal/place"
)

func TestVerifyChipParallelMatchesSerial(t *testing.T) {
	f := fastFlow(t)
	pl, err := f.Place(netlist.InverterChain(4), place.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Overdose without OPC produces real hotspots, so the deterministic
	// merge and stable severity sort are actually exercised.
	opt := ORCOptions{
		Corners: []litho.Corner{{DefocusNM: 0, Dose: 1.8}, litho.Nominal},
		Mode:    OPCNone,
		TileNM:  3000, // several tiles even on the small test chip
	}
	optSerial := opt
	optSerial.Workers = 1
	serial, err := f.VerifyChip(pl.Chip, optSerial)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Hotspots) == 0 || serial.Tiles < 2 {
		t.Fatalf("fixture too weak to test merging: %d hotspots over %d tiles",
			len(serial.Hotspots), serial.Tiles)
	}
	for _, workers := range []int{0, 2, 5} {
		optPar := opt
		optPar.Workers = workers
		parallel, err := f.VerifyChip(pl.Chip, optPar)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("workers=%d: parallel ORC report diverged from serial:\nserial   %+v\nparallel %+v",
				workers, serial, parallel)
		}
	}
}

func TestExtractGatesParallelMatchesSerial(t *testing.T) {
	f := fastFlow(t)
	pl, err := f.Place(netlist.InverterChain(5), place.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opt := ExtractOptions{Mode: OPCModel, Workers: 1}
	serial, err := f.ExtractGates(pl.Chip, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 4
	parallel, err := f.ExtractGates(pl.Chip, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("parallel extraction diverged from serial")
	}
}

// TestPerWindowPoolBalance runs cached extraction and ORC on two workers
// with the litho scratch pools instrumented and asserts every borrow was
// returned: each window hands its raster and kernel scratch back, whichever
// worker ran it.
func TestPerWindowPoolBalance(t *testing.T) {
	sink := obs.NewSink()
	litho.InstrumentPools(sink)
	defer litho.InstrumentPools(nil)

	f := newFastFlow(t).EnableCache(0)
	pl, err := f.Place(netlist.InverterChain(6), place.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ExtractGates(pl.Chip, nil, ExtractOptions{Mode: OPCModel, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.VerifyChip(pl.Chip, ORCOptions{
		Corners: []litho.Corner{{DefocusNM: 0, Dose: 1.8}},
		TileNM:  3000,
		Workers: 2,
	}); err != nil {
		t.Fatal(err)
	}
	borrows := sink.Counter("litho.pool_borrows_total").Value()
	returns := sink.Counter("litho.pool_returns_total").Value()
	if borrows == 0 {
		t.Fatal("pools saw no traffic: instrumentation broken")
	}
	if borrows != returns {
		t.Fatalf("pool borrow/return imbalance: %d borrowed, %d returned", borrows, returns)
	}
}

// TestPerWindowErrorParity: when several windows fail, ExtractGates returns
// the error of the lowest-index failing window (names are sorted, so the
// alphabetically first failing instance) at every worker count — the same
// error a serial loop surfaces.
func TestPerWindowErrorParity(t *testing.T) {
	f := fastFlow(t)
	// A low utilization pads the rows with several fill cells.
	pl, err := f.Place(netlist.InverterChain(4), place.Options{Utilization: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Instances without gate sites (fill cells) fail their window; two of
	// them make the lowest-index choice observable.
	var bad []string
	for i := range pl.Chip.Instances {
		if in := &pl.Chip.Instances[i]; len(in.Cell.Gates) == 0 {
			bad = append(bad, in.Name)
		}
	}
	if len(bad) < 2 {
		t.Fatalf("fixture too weak: %d gateless instances, want >= 2", len(bad))
	}
	sort.Strings(bad)
	names := []string{"u1", bad[1], "u2", bad[0], "u3"}
	_, wantErr := f.ExtractGates(pl.Chip, names, ExtractOptions{Mode: OPCNone, Workers: 1})
	if wantErr == nil {
		t.Fatal("serial extraction accepted a gateless instance")
	}
	if !strings.Contains(wantErr.Error(), " "+bad[0]+" ") {
		t.Fatalf("serial error %q does not name the lowest failing instance %s", wantErr, bad[0])
	}
	for _, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		_, gotErr := f.ExtractGates(pl.Chip, names, ExtractOptions{Mode: OPCNone, Workers: w})
		if gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("workers=%d: error = %v, want %v", w, gotErr, wantErr)
		}
	}
}

// TestConcurrentLazyInits hammers a fresh Flow's lazily built members —
// the rule-OPC deck (via rule-mode ExtractInstance) and the dark-field
// contact model (via ExtractContacts) — from many goroutines at once. With
// -race this proves first use is safe by construction.
func TestConcurrentLazyInits(t *testing.T) {
	f, err := New(pdk.N90(), Config{Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := f.Place(netlist.InverterChain(3), place.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pl.Chip.BuildIndex()
	inst := pl.Chip.FindInstance("u1")
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				_, errs[i] = f.ExtractInstance(pl.Chip, inst, ExtractOptions{Mode: OPCRule})
			} else {
				_, errs[i] = f.ExtractContacts(pl.Chip, inst, litho.Nominal)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
}

func TestInteriorEPEsRejectsTruncatedSamples(t *testing.T) {
	frag := func(x, y geom.Coord) *opc.Fragment {
		return &opc.Fragment{Control: geom.Pt(x, y)}
	}
	frags := []*opc.FragmentedPolygon{
		{Frags: []*opc.Fragment{frag(10, 10), frag(20, 10)}},
		{Frags: []*opc.Fragment{frag(500, 500)}},
	}
	interior := geom.R(0, 0, 100, 100)
	// Matching counts: only the two interior control points survive.
	out, err := interiorEPEs(frags, []float64{1, 2, 3}, interior)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0] != 1 || out[1] != 2 {
		t.Fatalf("interior EPEs = %v", out)
	}
	// A short sample vector used to be silently truncated; now it must
	// fail loudly.
	if _, err := interiorEPEs(frags, []float64{1, 2}, interior); err == nil {
		t.Fatal("short EPE vector accepted")
	}
	if _, err := interiorEPEs(frags, []float64{1, 2, 3, 4}, interior); err == nil {
		t.Fatal("long EPE vector accepted")
	}
}
