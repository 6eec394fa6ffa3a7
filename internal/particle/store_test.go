package particle

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"pscluster/internal/geom"
)

func mkStore(nbins int) *ColumnStore { return NewColumnStore(geom.AxisX, 0, 100, nbins) }

// addAll stores every particle in ps, in order.
func addAll(s *ColumnStore, ps []Particle) {
	for i := range ps {
		s.Add(ps[i])
	}
}

// forEach mutates every stored particle as a record, in store order.
func forEach(s *ColumnStore, fn func(*Particle)) {
	s.EachBatch(func(b *Batch) {
		for i := 0; i < b.Len(); i++ {
			p := b.At(i)
			fn(&p)
			b.Set(i, p)
		}
	})
}

// partition and selectDonation give the batch-shaped structural
// operations the record shape these tests inspect.
func partition(s *ColumnStore) []Particle { return s.PartitionBatch().All() }

func selectDonation(s *ColumnStore, n int, side Side) ([]Particle, float64) {
	b, boundary := s.DonateBatch(n, side)
	return b.All(), boundary
}

func fillUniform(s *ColumnStore, n int, seed uint64) {
	r := geom.NewRNG(seed)
	lo, hi := s.Bounds()
	for i := 0; i < n; i++ {
		s.Add(Particle{Pos: geom.V(r.Range(lo, hi), r.Range(-5, 5), 0)})
	}
}

func TestStoreAddLen(t *testing.T) {
	s := mkStore(8)
	fillUniform(s, 100, 1)
	if s.Len() != 100 {
		t.Fatalf("Len = %d", s.Len())
	}
	total := 0
	for _, c := range s.BinCounts() {
		total += c
	}
	if total != 100 {
		t.Fatalf("bin counts sum to %d", total)
	}
}

func TestStoreBinningSpreads(t *testing.T) {
	s := mkStore(10)
	fillUniform(s, 10000, 2)
	for i, c := range s.BinCounts() {
		if c < 700 || c > 1300 {
			t.Errorf("bin %d has %d particles; uniform fill should give ~1000", i, c)
		}
	}
}

func TestStoreEdgeCoordinatesClampIntoEdgeBins(t *testing.T) {
	s := mkStore(4)
	s.Add(Particle{Pos: geom.V(0, 0, 0)})        // exactly lo
	s.Add(Particle{Pos: geom.V(100, 0, 0)})      // exactly hi (clamped in)
	s.Add(Particle{Pos: geom.V(99.99999, 0, 0)}) // just inside
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	c := s.BinCounts()
	if c[0] != 1 || c[3] != 2 {
		t.Errorf("bin counts = %v", c)
	}
}

func TestRemoveDead(t *testing.T) {
	s := mkStore(4)
	fillUniform(s, 60, 4)
	i := 0
	forEach(s, func(p *Particle) {
		if i%3 == 0 {
			p.Dead = true
		}
		i++
	})
	removed := s.RemoveDead()
	if removed != 20 {
		t.Fatalf("removed %d, want 20", removed)
	}
	if s.Len() != 40 {
		t.Fatalf("Len = %d, want 40", s.Len())
	}
	for _, p := range s.All() {
		if p.Dead {
			t.Fatal("dead particle survived")
		}
	}
}

func TestPartitionExtractsOutOfDomain(t *testing.T) {
	s := mkStore(5)
	fillUniform(s, 200, 5)
	// Push some particles out of [0,100).
	i := 0
	forEach(s, func(p *Particle) {
		switch i % 10 {
		case 0:
			p.Pos.X = -3 // left of domain
		case 1:
			p.Pos.X = 150 // right of domain
		}
		i++
	})
	out := partition(s)
	if len(out) != 40 {
		t.Fatalf("partitioned %d, want 40", len(out))
	}
	if s.Len() != 160 {
		t.Fatalf("Len = %d, want 160", s.Len())
	}
	for _, p := range out {
		if p.Pos.X >= 0 && p.Pos.X < 100 {
			t.Fatal("in-domain particle extracted")
		}
	}
	for _, p := range s.All() {
		if p.Pos.X < 0 || p.Pos.X >= 100 {
			t.Fatal("out-of-domain particle kept")
		}
	}
}

func TestPartitionRebinsMovedParticles(t *testing.T) {
	s := mkStore(10)
	fillUniform(s, 500, 6)
	// Shift all particles right by 7 (staying in domain for most).
	forEach(s, func(p *Particle) { p.Pos.X = math.Min(p.Pos.X+7, 99.5) })
	partition(s)
	// Every particle must now be in the bin matching its coordinate.
	counts := s.BinCounts()
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != s.Len() || total != 500 {
		t.Fatalf("total %d, Len %d", total, s.Len())
	}
	// Verify bin membership via a fresh store round-trip.
	fresh := mkStore(10)
	addAll(fresh, s.All())
	got, want := s.BinCounts(), fresh.BinCounts()
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("bin %d: got %d want %d", i, got[i], want[i])
		}
	}
}

// Property: Partition conserves particles — everything is either kept or
// returned, nothing duplicated.
func TestPartitionConservation(t *testing.T) {
	f := func(seed uint64, shift float64) bool {
		if math.IsNaN(shift) || math.IsInf(shift, 0) {
			return true
		}
		shift = math.Mod(shift, 300)
		s := mkStore(6)
		fillUniform(s, 300, seed)
		forEach(s, func(p *Particle) { p.Pos.X += shift })
		before := 300
		out := partition(s)
		return len(out)+s.Len() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestResizeKeepsParticles(t *testing.T) {
	s := mkStore(4)
	fillUniform(s, 100, 7)
	s.Resize(-50, 200)
	if s.Len() != 100 {
		t.Fatalf("Len after resize = %d", s.Len())
	}
	lo, hi := s.Bounds()
	if lo != -50 || hi != 200 {
		t.Fatalf("bounds = [%g, %g)", lo, hi)
	}
}

func TestSelectDonationLowSide(t *testing.T) {
	s := mkStore(8)
	fillUniform(s, 400, 8)
	donated, boundary := selectDonation(s, 100, LowSide)
	if len(donated) != 100 {
		t.Fatalf("donated %d, want 100", len(donated))
	}
	if s.Len() != 300 {
		t.Fatalf("kept %d, want 300", s.Len())
	}
	// Every donated particle must be left of the boundary, every kept one
	// right of (or at) it.
	for _, p := range donated {
		if p.Pos.X > boundary {
			t.Fatalf("donated particle at %g beyond boundary %g", p.Pos.X, boundary)
		}
	}
	for _, p := range s.All() {
		if p.Pos.X < boundary {
			t.Fatalf("kept particle at %g inside donated span (boundary %g)", p.Pos.X, boundary)
		}
	}
	lo, _ := s.Bounds()
	if lo != boundary {
		t.Fatalf("store lo %g != boundary %g", lo, boundary)
	}
}

func TestSelectDonationHighSide(t *testing.T) {
	s := mkStore(8)
	fillUniform(s, 400, 9)
	donated, boundary := selectDonation(s, 150, HighSide)
	if len(donated) != 150 {
		t.Fatalf("donated %d", len(donated))
	}
	for _, p := range donated {
		if p.Pos.X < boundary {
			t.Fatalf("donated particle at %g below boundary %g", p.Pos.X, boundary)
		}
	}
	for _, p := range s.All() {
		if p.Pos.X > boundary {
			t.Fatalf("kept particle at %g above boundary %g", p.Pos.X, boundary)
		}
	}
	_, hi := s.Bounds()
	if hi != boundary {
		t.Fatalf("store hi %g != boundary %g", hi, boundary)
	}
}

func TestSelectDonationExactlyTheEdgeParticles(t *testing.T) {
	// With particles at known positions, the donation must take exactly
	// the leftmost ones.
	s := mkStore(4)
	for _, x := range []float64{90, 10, 50, 30, 70, 20, 80, 40, 60, 5} {
		s.Add(Particle{Pos: geom.V(x, 0, 0)})
	}
	donated, boundary := selectDonation(s, 3, LowSide)
	xs := make([]float64, len(donated))
	for i, p := range donated {
		xs[i] = p.Pos.X
	}
	sort.Float64s(xs)
	want := []float64{5, 10, 20}
	for i := range want {
		if xs[i] != want[i] {
			t.Fatalf("donated xs = %v, want %v", xs, want)
		}
	}
	if boundary != 25 { // halfway between 20 and 30
		t.Errorf("boundary = %g, want 25", boundary)
	}
}

func TestSelectDonationAll(t *testing.T) {
	s := mkStore(4)
	fillUniform(s, 10, 10)
	donated, boundary := selectDonation(s, 10, LowSide)
	if len(donated) != 10 || s.Len() != 0 {
		t.Fatalf("donated %d, kept %d", len(donated), s.Len())
	}
	if boundary != 100 {
		t.Errorf("boundary = %g, want hi edge 100", boundary)
	}
}

func TestSelectDonationMoreThanHeld(t *testing.T) {
	s := mkStore(4)
	fillUniform(s, 10, 11)
	donated, _ := selectDonation(s, 50, HighSide)
	if len(donated) != 10 {
		t.Fatalf("donated %d, want all 10", len(donated))
	}
}

func TestSelectDonationZero(t *testing.T) {
	s := mkStore(4)
	fillUniform(s, 10, 12)
	donated, boundary := selectDonation(s, 0, LowSide)
	if len(donated) != 0 || boundary != 0 || s.Len() != 10 {
		t.Errorf("zero donation: %v, %g", donated, boundary)
	}
}

// Property: donation + keep conserves particles and the donated set is
// exactly the n extreme particles along the axis.
func TestSelectDonationProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8, high bool) bool {
		s := mkStore(7)
		fillUniform(s, 200, seed)
		all := s.All()
		n := int(nRaw) % 200
		side := LowSide
		if high {
			side = HighSide
		}
		donated, _ := selectDonation(s, n, side)
		if len(donated)+s.Len() != 200 || len(donated) != n {
			return false
		}
		// The donated multiset must equal the n extreme coordinates.
		xs := make([]float64, len(all))
		for i, p := range all {
			xs[i] = p.Pos.X
		}
		sort.Float64s(xs)
		want := xs[:n]
		if high {
			want = xs[len(xs)-n:]
		}
		got := make([]float64, len(donated))
		for i, p := range donated {
			got[i] = p.Pos.X
		}
		sort.Float64s(got)
		sort.Float64s(want)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestNewStorePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero bins":         func() { NewColumnStore(geom.AxisX, 0, 1, 0) },
		"reversed interval": func() { NewColumnStore(geom.AxisX, 5, 4, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestClear(t *testing.T) {
	s := mkStore(4)
	fillUniform(s, 30, 13)
	s.Clear()
	if s.Len() != 0 || len(s.All()) != 0 {
		t.Error("Clear left particles behind")
	}
}

func TestSideString(t *testing.T) {
	if LowSide.String() != "low" || HighSide.String() != "high" {
		t.Error("Side strings wrong")
	}
}
