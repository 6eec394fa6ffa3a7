// Package core is determinism-analyzer testdata posing as the engine
// package "core": wall-clock reads, global rand draws and unordered map
// iteration are findings here.
package core

import (
	"math/rand"
	"sort"
	"time"
)

var sink float64

// wallClock exercises the time.* wall-clock checks.
func wallClock() {
	t0 := time.Now()                   // want `determinism: time.Now reads the host wall clock`
	sink += time.Since(t0).Seconds()   // want `determinism: time.Since reads the host wall clock`
	time.Sleep(time.Millisecond)       // want `determinism: time.Sleep reads the host wall clock`
	_ = time.Until(t0)                 // want `determinism: time.Until reads the host wall clock`
	_ = time.Unix(0, 0)                // constructing a Time from literals reads no clock
	_ = time.Duration(5) * time.Second // arithmetic on durations is fine
}

// globalRand exercises the math/rand source checks.
func globalRand() {
	sink += rand.Float64() // want `determinism: math/rand.Float64 draws from the process-global rand source`
	_ = rand.Intn(10)      // want `determinism: math/rand.Intn draws from the process-global rand source`

	r := rand.New(rand.NewSource(42)) // seeded constructor: allowed
	sink += r.Float64()               // method on the seeded *rand.Rand: allowed
	_ = r.Intn(10)
}

// mapOrder exercises the map-iteration checks.
func mapOrder(m map[string]float64) {
	for _, v := range m { // want `determinism: map iteration order is randomized per run`
		sink += v
	}

	// The blessed collect-then-sort idiom needs no annotation.
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		sink += m[k]
	}

	for _, v := range m { //pslint:nondeterministic-ok values are summed, addition order is commutative here // want-suppressed `map iteration`
		sink += v
	}

	//pslint:nondeterministic-ok
	for _, v := range m { // want `//pslint:nondeterministic-ok needs a reason`
		sink += v
	}
}

// sliceOrder ranges over slices freely: only maps are unordered.
func sliceOrder(xs []float64) {
	for _, x := range xs {
		sink += x
	}
}
