package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/trajstore"
)

// fingerprint is the simulated outcome of one run: every field is a pure
// function of (workload, seed), so two runs of the same seed on any machine
// and at any worker count must agree exactly.
type fingerprint struct {
	Rounds       int    `json:"rounds"`
	Reached      bool   `json:"reached"`
	TimeToTarget int64  `json:"time_to_target_ns"`
	CPUToTarget  int64  `json:"cpu_to_target_ns"`
	Elapsed      int64  `json:"elapsed_ns"`
	CPUTotal     int64  `json:"cpu_total_ns"`
	Global       string `json:"global_fnv64"`
}

// fingerprintOf folds a Report into its fingerprint. FinalGlobal is hashed
// by its float32 bit patterns (FNV-1a 64), so any change to a single
// element shows; a non-finite element is an error, never a hash.
func fingerprintOf(rep *core.Report) (fingerprint, error) {
	if rep.FinalGlobal == nil {
		return fingerprint{}, errors.New("report has no final global model")
	}
	h := fnv.New64a()
	var buf [4]byte
	for i, v := range rep.FinalGlobal.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return fingerprint{}, fmt.Errorf("final global element %d is %v", i, v)
		}
		b := math.Float32bits(v)
		buf[0], buf[1], buf[2], buf[3] = byte(b), byte(b>>8), byte(b>>16), byte(b>>24)
		h.Write(buf[:])
	}
	return fingerprint{
		Rounds:       rep.RoundsRun,
		Reached:      rep.Reached,
		TimeToTarget: int64(rep.TimeToTarget),
		CPUToTarget:  int64(rep.CPUToTarget),
		Elapsed:      int64(rep.Elapsed),
		CPUTotal:     int64(rep.CPUTotal),
		Global:       fmt.Sprintf("%016x", h.Sum64()),
	}, nil
}

// simTime is the paper's time-to-accuracy: simulated time to the target,
// or to the last round when the target is unreachable by design.
func (f fingerprint) simTime() float64 {
	if f.Reached {
		return float64(f.TimeToTarget) / 1e9
	}
	return float64(f.Elapsed) / 1e9
}

// simCPUHours is the paper's cost-to-accuracy over the same span.
func (f fingerprint) simCPUHours() float64 {
	if f.Reached {
		return float64(f.CPUToTarget) / 3.6e12
	}
	return float64(f.CPUTotal) / 3.6e12
}

// reference maps "workload/seed" to the committed fingerprint.
type reference map[string]fingerprint

//go:embed reference.json
var referenceJSON []byte

func refKey(workload string, seed int64) string {
	return workload + "/" + strconv.FormatInt(seed, 10)
}

func loadReference(data []byte) (reference, error) {
	ref := reference{}
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("reference fingerprints: %w", err)
	}
	return ref, nil
}

// check verifies one run's fingerprint: always against the invariants the
// workload fixes for every seed, and exactly against the committed
// reference when the seed has one. It reports whether a reference existed.
func (ref reference) check(w workload, seed int64, got fingerprint) (bool, error) {
	if got.Rounds != w.rounds {
		return false, fmt.Errorf("%s: ran %d rounds, want %d", w.name, got.Rounds, w.rounds)
	}
	if got.Reached != w.reached {
		return false, fmt.Errorf("%s: reached=%v, want %v", w.name, got.Reached, w.reached)
	}
	if got.Elapsed <= 0 || got.CPUTotal <= 0 {
		return false, fmt.Errorf("%s: non-positive simulated clock or CPU (%d, %d)", w.name, got.Elapsed, got.CPUTotal)
	}
	if got.TimeToTarget > got.Elapsed || got.CPUToTarget > got.CPUTotal {
		return false, fmt.Errorf("%s: target reached after the run ended", w.name)
	}
	want, ok := ref[refKey(w.name, seed)]
	if !ok {
		return false, nil
	}
	if got != want {
		return true, fmt.Errorf("%s seed %d: fingerprint %+v differs from the committed %+v", w.name, seed, got, want)
	}
	return true, nil
}

// checkReplay compares a trajectory file's replayed summary with the live
// run that wrote it.
func checkReplay(path string, rep *core.Report) error {
	s, err := trajstore.Replay(path, nil)
	if err != nil {
		return fmt.Errorf("replay %s: %w", path, err)
	}
	switch {
	case s.Rounds != rep.RoundsRun:
		return fmt.Errorf("replay: %d rounds stored, live run %d", s.Rounds, rep.RoundsRun)
	case s.Reached != rep.Reached || s.TimeToTarget != rep.TimeToTarget || s.CPUToTarget != rep.CPUToTarget:
		return fmt.Errorf("replay: target verdict (%v, %v, %v) differs from live (%v, %v, %v)",
			s.Reached, s.TimeToTarget, s.CPUToTarget, rep.Reached, rep.TimeToTarget, rep.CPUToTarget)
	case s.Last.Sim != rep.Elapsed || s.Last.CPU != rep.CPUTotal:
		return fmt.Errorf("replay: last round at (%v, %v), live run ended at (%v, %v)",
			s.Last.Sim, s.Last.CPU, rep.Elapsed, rep.CPUTotal)
	}
	return nil
}

// writeReference writes ref as indented JSON (map keys sorted, so the file
// diffs cleanly when seeds are added).
func writeReference(path string, ref reference) error {
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// parseSeeds reads a seed list such as "0-99,7919".
func parseSeeds(s string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.ParseInt(lo, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("seed list %q: %w", s, err)
		}
		b := a
		if isRange {
			if b, err = strconv.ParseInt(hi, 10, 64); err != nil {
				return nil, fmt.Errorf("seed list %q: %w", s, err)
			}
		}
		if b < a || b-a > 10_000 {
			return nil, fmt.Errorf("seed list %q: bad range %d-%d", s, a, b)
		}
		for v := a; v <= b; v++ {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// metricName is the grammar every reported metric name obeys: it starts
// with a letter or digit and has at most 64 letters, digits, '_', '.' and
// '-'.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metricUnit is the grammar of a unit: at most 16 letters, digits, '_',
// '/', '%', '.' and '-'.
var metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func checkMetricNames(ms map[string]metric) error {
	for name, m := range ms {
		if !metricName.MatchString(name) {
			return fmt.Errorf("metric name %q breaks the name grammar", name)
		}
		if !metricUnit.MatchString(m.Unit) {
			return fmt.Errorf("metric %s: unit %q breaks the unit grammar", name, m.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return nil
}
