package placement

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// probes returns the draws worth checking against table cum: hashed
// uniforms, 0, the largest float64 below 1, and every entry of cum with
// its neighbours — where a strict-versus-non-strict comparison would
// differ — kept inside [0, 1), the range hash01 draws from.
func probes(cum []float64, seed uint64) []float64 {
	us := []float64{0, math.Nextafter(1, 0)}
	for i := uint64(0); i < 64; i++ {
		us = append(us, hash01(seed^(i+1)*0x9E3779B97F4A7C15))
	}
	for _, c := range cum {
		us = append(us, c, math.Nextafter(c, 0), math.Nextafter(c, 2))
	}
	out := us[:0]
	for _, u := range us {
		if u >= 0 && u < 1 {
			out = append(out, u)
		}
	}
	return out
}

// checkRouter asserts cellIndex agrees with sort.SearchFloat64s on r's
// table, and that Counts(n) equals summing Home over 0..n-1.
func checkRouter(t *testing.T, r *CellRouter, n int) {
	t.Helper()
	for _, u := range probes(r.cum, r.seed) {
		if got, want := cellIndex(r.cum, u), sort.SearchFloat64s(r.cum, u); got != want {
			t.Fatalf("cum %v, u=%v: cellIndex %d, SearchFloat64s %d", r.cum, u, got, want)
		}
	}
	want := make([]int, len(r.cum))
	for i := 0; i < n; i++ {
		want[r.Home(i)]++
	}
	got := r.Counts(n)
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("cum %v: Counts(%d) = %v, summing Home gives %v", r.cum, n, got, want)
		}
	}
}

func mustRouter(t *testing.T, weights []float64, seed int64) *CellRouter {
	t.Helper()
	r, err := NewCellRouter(len(weights), weights, seed)
	if err != nil {
		t.Fatalf("weights %v: %v", weights, err)
	}
	return r
}

func TestCellIndexMatchesSearch(t *testing.T) {
	for _, w := range [][]float64{
		{1},
		{1, 1, 1, 1},
		{0.4, 0.3, 0.2, 0.1},
		{0, 1},
		{1, 0},
		{0, 0, 1, 0, 0},
		{1e-300, 1, 1e-300},
		{math.SmallestNonzeroFloat64, 1},
		{math.MaxFloat64, math.MaxFloat64, 1}, // the total overflows to +Inf
		{0.41032284435628247, 0.6250950283005304, 0.6236088264529301, 0.8305339189948062, 0},
	} {
		checkRouter(t, mustRouter(t, w, 7), 4096)
	}
	// Random vectors with zero weights, including trailing ones: there a
	// rounded running sum can put cum[len-2] above the forced final 1.
	rng := rand.New(rand.NewSource(1))
	above := 0
	for trial := 0; trial < 2000; trial++ {
		w := make([]float64, 1+rng.Intn(10))
		total := 0.0
		for i := range w {
			if rng.Intn(4) > 0 {
				w[i] = rng.Float64() * math.Pow(10, float64(rng.Intn(9)-4))
			}
			total += w[i]
		}
		if total == 0 {
			w[0] = 1
		}
		r := mustRouter(t, w, int64(trial))
		if n := len(r.cum); n >= 2 && r.cum[n-2] > 1 {
			above++
		}
		checkRouter(t, r, 256)
	}
	if above == 0 {
		t.Fatal("no generated table put cum[len-2] above 1; the rounding case went untested")
	}
}

// TestCellRouterRejectsNonFiniteWeights pins the validation cellIndex's
// agreement with the search rests on: a NaN in the table would count
// differently from the binary search.
func TestCellRouterRejectsNonFiniteWeights(t *testing.T) {
	for _, w := range [][]float64{{math.NaN(), 1}, {1, math.Inf(1)}, {-1, 2}} {
		if _, err := NewCellRouter(len(w), w, 1); err == nil {
			t.Fatalf("weights %v accepted", w)
		}
	}
	r, err := NewElasticRouter(2, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := r.Join(w); err == nil {
			t.Fatalf("join weight %v accepted", w)
		}
		if err := r.SetWeight(0, w); err == nil {
			t.Fatalf("weight %v accepted", w)
		}
	}
}

// FuzzCellIndex decodes up to 8 arbitrary float64 weights (any bit
// pattern) and a seed; every vector NewCellRouter accepts must route
// identically under cellIndex and sort.SearchFloat64s.
func FuzzCellIndex(f *testing.F) {
	seed := func(ws ...float64) []byte {
		b := make([]byte, 0, 8*len(ws))
		for _, w := range ws {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(w))
		}
		return b
	}
	f.Add(seed(0.4, 0.3, 0.2, 0.1), int64(1))
	f.Add(seed(0, 0, 1, 0), int64(2))
	f.Add(seed(0.41032284435628247, 0.6250950283005304, 0.6236088264529301, 0.8305339189948062, 0), int64(3))
	f.Add(seed(math.MaxFloat64, math.MaxFloat64), int64(4))
	f.Fuzz(func(t *testing.T, raw []byte, s int64) {
		var w []float64
		for len(raw) >= 8 && len(w) < 8 {
			w = append(w, math.Float64frombits(binary.LittleEndian.Uint64(raw)))
			raw = raw[8:]
		}
		if len(w) == 0 {
			return
		}
		r, err := NewCellRouter(len(w), w, s)
		if err != nil {
			return
		}
		checkRouter(t, r, 64)
	})
}

var countsSink []int

// BenchmarkCellRouterCounts times the fabric's set-up partition: 8M
// clients over four cells weighted 0.4/0.3/0.2/0.1 (geo-pop's shape).
func BenchmarkCellRouterCounts(b *testing.B) {
	r, err := NewCellRouter(4, []float64{0.4, 0.3, 0.2, 0.1}, 7919)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		countsSink = r.Counts(8_000_000)
	}
}
