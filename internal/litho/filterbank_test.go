package litho

import (
	"sync"
	"testing"

	"postopc/internal/geom"
)

// maskHalf rasterizes the standard 3-line test pattern on a window of the
// given half-size.
func maskHalf(half geom.Coord) *geom.Raster {
	la := LineArray{WidthNM: 130, PitchNM: 280, Count: 3, LengthNM: 600}
	ra := geom.NewRaster(geom.R(-half, -half, half, half), 10)
	for _, r := range la.Rects() {
		ra.AddRect(r)
	}
	ra.Clamp()
	return ra
}

// TestSharedBankConcurrentModels hammers the shared bank from concurrent
// workers holding distinct equal-recipe models (the read-mostly service
// contract): every worker must end up with the same filter-set pointer and
// imaging must succeed throughout. Run with -race this also checks the
// copy-on-write snapshot discipline.
func TestSharedBankConcurrentModels(t *testing.T) {
	const workers = 8
	mask := maskHalf(640)
	models := make([]*Abbe, workers)
	for w := range models {
		models[w] = newAbbeT(t)
	}
	ptrs := make([]*filterSet, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if _, err := models[w].Aerial(mask, Nominal); err != nil {
				t.Error(err)
				return
			}
			ptrs[w] = models[w].filtersFor(128, 128, 10, 0)
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for w := 1; w < workers; w++ {
		if ptrs[w] != ptrs[0] {
			t.Fatalf("worker %d resolved a different filter set than worker 0", w)
		}
	}
}
