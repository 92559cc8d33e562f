package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n, wantP int
		wantV    float64
	}{
		{79, 87, 69},    // r18-fleet's round count: rank 69, 10 beyond
		{1000, 99, 990}, // enough samples for p99
		{11, 9, 1},      // the smallest sample with a tail
	} {
		p, v, ok := tailPercentile(samples(c.n))
		if !ok || p != c.wantP || v != c.wantV {
			t.Errorf("n=%d: got p%d=%v ok=%v, want p%d=%v", c.n, p, v, ok, c.wantP, c.wantV)
		}
	}
	if _, _, ok := tailPercentile(samples(10)); ok {
		t.Error("10 samples cannot have 10 beyond any percentile")
	}
	// The rule for every size: at least 10 beyond p, fewer than 10 beyond p+1.
	for n := 11; n <= 3000; n++ {
		p, v, _ := tailPercentile(samples(n))
		if beyond := n - int(v); beyond < 10 {
			t.Fatalf("n=%d: p%d has only %d samples beyond", n, p, beyond)
		}
		if p < 99 {
			if next := n - (((p+1)*n + 99) / 100); next >= 10 {
				t.Fatalf("n=%d: p%d also has %d samples beyond; p%d is not the highest", n, p+1, next, p)
			}
		}
	}
}

func TestSetupFromFirstRound(t *testing.T) {
	start := time.Unix(1000, 0)
	// The first observation arrives 1.5 s after the run call, for a round
	// that took 0.4 s: set-up ended 1.1 s in.
	if got := setupFromFirstRound(start, start.Add(1500*time.Millisecond), 400*time.Millisecond); got != 1100*time.Millisecond {
		t.Errorf("setup = %v, want 1.1s", got)
	}
	// A round that took the whole interval leaves no set-up.
	if got := setupFromFirstRound(start, start.Add(time.Second), time.Second); got != 0 {
		t.Errorf("setup = %v, want 0", got)
	}
	o := &observed{start: start, round1: start.Add(250 * time.Millisecond)}
	if got := o.setup(); got != 250*time.Millisecond {
		t.Errorf("observed.setup = %v, want 250ms", got)
	}

	// In CPU time: 1.5 s of CPU up to the first observation, for a round
	// of 0.4 s wall in a loop that spent 3 s of CPU per 2 s of wall, so
	// round 1 took 0.6 s of CPU.
	if got := cpuSetupFromFirstRound(1500*time.Millisecond, 400*time.Millisecond, 3*time.Second, 2*time.Second); got != 900*time.Millisecond {
		t.Errorf("CPU setup = %v, want 0.9s", got)
	}
	// A one-round run has no loop after round 1: its wall counts as CPU.
	if got := cpuSetupFromFirstRound(time.Second, 400*time.Millisecond, 0, 0); got != 600*time.Millisecond {
		t.Errorf("CPU setup = %v, want 0.6s", got)
	}
	// A single platform's set-up ends when NewPlatform returns.
	o = &observed{built: start, cpuStart: time.Second, cpuBuilt: 1300 * time.Millisecond, cpuFirst: 5 * time.Second}
	if got := o.setupCPU(); got != 300*time.Millisecond {
		t.Errorf("observed.setupCPU = %v, want 300ms", got)
	}
}

func TestCalibrated(t *testing.T) {
	// Passes of 30 and 50 ms around a run on a host running at half the
	// reference speed (calibRef = 20 ms): 2 s of CPU read as 1 s.
	if got := calibrated(2*time.Second, 0.030, 0.050); math.Abs(got-1) > 1e-12 {
		t.Errorf("calibrated = %v, want 1", got)
	}
	c, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	if m := c.measure(); m <= 0 || len(c.passes) != calibPasses {
		t.Errorf("measure = %v over %d passes", m, len(c.passes))
	}
}

func TestFingerprintCheck(t *testing.T) {
	w, err := findWorkload("r18-fleet")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := loadReference(referenceJSON)
	if err != nil {
		t.Fatal(err)
	}
	want, ok := ref[refKey(w.name, 1)]
	if !ok {
		t.Fatal("no committed reference for r18-fleet seed 1")
	}
	if has, err := ref.check(w, 1, want); !has || err != nil {
		t.Fatalf("committed fingerprint rejected: has=%v err=%v", has, err)
	}
	tampers := map[string]func(*fingerprint){
		"rounds":  func(f *fingerprint) { f.Rounds++ },
		"reached": func(f *fingerprint) { f.Reached = !f.Reached },
		"tta":     func(f *fingerprint) { f.TimeToTarget-- },
		"cta":     func(f *fingerprint) { f.CPUToTarget++ },
		"elapsed": func(f *fingerprint) { f.Elapsed++ },
		"cpu":     func(f *fingerprint) { f.CPUTotal++ },
		"global":  func(f *fingerprint) { f.Global = strings.Repeat("0", 16) },
	}
	for name, tamper := range tampers {
		got := want
		tamper(&got)
		if _, err := ref.check(w, 1, got); err == nil {
			t.Errorf("tampered %s accepted", name)
		}
	}
	// Without a committed entry only the invariants apply.
	if has, err := ref.check(w, 1<<40, want); has || err != nil {
		t.Errorf("unreferenced seed: has=%v err=%v, want invariants to pass", has, err)
	}
}

// TestRunMatchesReference runs r18-fleet seed 1 for real and checks it
// against the committed reference, then against a tampered copy.
func TestRunMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full workload")
	}
	w, _ := findWorkload("r18-fleet")
	ref, err := loadReference(referenceJSON)
	if err != nil {
		t.Fatal(err)
	}
	v := &verifier{w: w, seed: 1, ref: ref}
	if v.run(t.TempDir(), hooks{}) == nil || !v.hasRef {
		t.Fatalf("run against the committed reference: errs=%v hasRef=%v", v.errs, v.hasRef)
	}
	bad := reference{}
	fp := ref[refKey(w.name, 1)]
	fp.Global = "0123456789abcdef"
	bad[refKey(w.name, 1)] = fp
	v = &verifier{w: w, seed: 1, ref: bad}
	if v.run(t.TempDir(), hooks{}) != nil || v.failed != w.rounds {
		t.Fatalf("tampered reference accepted (failed=%d)", v.failed)
	}
}

func TestMetricNameGrammar(t *testing.T) {
	for _, ok := range []string{"setup_s", "core.round_tail_us", "flwork.update_ns_per_kelem", "0x", "a-b.c_d"} {
		if !metricName.MatchString(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "-x", "a b", "a/b", "a:b", "é", strings.Repeat("a", 65)} {
		if metricName.MatchString(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	if err := checkMetricNames(map[string]metric{"x": {1, "1/s"}, "y": {2, "%"}}); err != nil {
		t.Error(err)
	}
	if err := checkMetricNames(map[string]metric{"x y": {1, "s"}}); err == nil {
		t.Error("bad name accepted")
	}
	if err := checkMetricNames(map[string]metric{"x": {1, "m s"}}); err == nil {
		t.Error("bad unit accepted")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "round", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "round", Start: 40, End: 90}, // overlaps its sibling
		{ID: 4, Parent: 2, Name: "stage", Start: 5, End: 20},  // clipped to its parent
	}
	got := selfTimes(spans)
	want := map[string]int64{"run": 20, "round": 30 + 50, "stage": 15}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self %s = %d, want %d", name, got[name], w)
		}
	}
}

// TestMetricsMatchBenchmarkJSON runs both modes on r18-fleet with an
// empty window and checks the emitted metric names and units against the
// benchmark definition at the repository root.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full workloads")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name, Unit string
	}
	var bench struct {
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	w, _ := findWorkload("r18-fleet")
	ref, _ := loadReference(referenceJSON)
	for _, c := range []struct {
		defs    []def
		measure func(*verifier, string) (map[string]metric, error)
	}{
		{bench.EndToEnd, func(v *verifier, dir string) (map[string]metric, error) {
			return measureEndToEnd(v, dir, 0, io.Discard)
		}},
		{bench.PerLayer, func(v *verifier, dir string) (map[string]metric, error) {
			return measureLayers(v, dir, 0, io.Discard)
		}},
	} {
		v := &verifier{w: w, seed: 1, ref: ref}
		ms, err := c.measure(v, t.TempDir())
		if err != nil || v.failed != 0 {
			t.Fatalf("measure: %v (failed %d, errs %v)", err, v.failed, v.errs)
		}
		if err := checkMetricNames(ms); err != nil {
			t.Error(err)
		}
		var got, want []string
		for name, m := range ms {
			got = append(got, name+" "+m.Unit)
		}
		for _, d := range c.defs {
			want = append(want, d.Name+" "+d.Unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("emitted metrics\n%v\ndiffer from BENCHMARK.json\n%v", got, want)
		}
	}
}

func TestParseSeeds(t *testing.T) {
	got, err := parseSeeds("3,0-2,7919")
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{0, 1, 2, 3, 7919}; len(got) != len(want) || got[0] != 0 || got[4] != 7919 {
		t.Errorf("got %v, want %v", got, want)
	}
	for _, bad := range []string{"", "x", "5-3", "1-"} {
		if _, err := parseSeeds(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}
