// Command flbench is the repository's benchmark: it runs one of four
// federated-learning workloads repeatedly for a measurement window, checks
// every run's simulated outcome against committed reference fingerprints,
// and prints one JSON result line.
//
// Usage (from the repository root; run.sh builds and forwards flags):
//
//	bash flbench/run.sh --workload r18-fleet --seed 1 --seconds 15 --trace 0
//	bash flbench/run.sh --workload tiny-churn --seed 1 --seconds 15 --trace 1
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// no instrument attached; host times are CPU seconds scaled by a
// calibration kernel run between runs (calibrate.go). With --trace 1 it
// carries the per-layer metrics from separate traced runs; their spans
// and per-layer self times are written to the -dir directory. README.md
// maps every per-layer metric to the end-to-end metric it should move.
//
// Exit status: 0 when every run matched; 1 when a run failed or its
// fingerprint mismatched (the result line says so); 2 on usage errors and
// harness failures, which print no result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	// One P: the collector and the fabric's two workers share the thread
	// that runs the simulation. With a second P the runtime hands work
	// between vCPUs thousands of times a second, and what those wake-ups
	// cost moves with the host's load, not with the program.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("flbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: r18-fleet, geo-pop, tiny-churn or r18-async")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measurement window in seconds")
	traceOn := fs.Int("trace", 0, "0 = end-to-end metrics; 1 = traced per-layer metrics")
	dir := fs.String("dir", ".bench_build/flbench/work", "directory for trajectory files and span logs")
	record := fs.String("record", "", "run every workload once per -seeds seed, write reference fingerprints to this file, and exit")
	seeds := fs.String("seeds", "1", "seed list for -record, e.g. 0-99,7919")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "flbench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "flbench:", err)
		return 2
	}
	ref, err := loadReference(referenceJSON)
	if err != nil {
		fmt.Fprintln(stderr, "flbench:", err)
		return 2
	}
	if *record != "" {
		if err := recordReference(*record, *seeds, *dir, stderr); err != nil {
			fmt.Fprintln(stderr, "flbench:", err)
			return 1
		}
		return 0
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "flbench:", err)
		return 2
	}
	if *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(stderr, "flbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}

	v := &verifier{w: w, seed: *seed, ref: ref}
	window := time.Duration(*seconds) * time.Second
	var ms map[string]metric
	if *traceOn == 1 {
		ms, err = measureLayers(v, *dir, window, stderr)
	} else {
		ms, err = measureEndToEnd(v, *dir, window, stderr)
	}
	v.report(stderr)
	if err == nil {
		err = checkMetricNames(ms)
	}
	if err != nil {
		fmt.Fprintln(stderr, "flbench:", err)
		return 2
	}
	res := result{Correct: v.failed == 0, Attempted: v.attempted, Failed: v.failed, Metrics: ms}
	fmt.Fprintf(stderr, "flbench: failed_frac %g (%d of %d rounds)\n", float64(v.failed)/float64(v.attempted), v.failed, v.attempted)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "flbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// recordReference runs every workload once per seed and merges the
// fingerprints into the reference file at path.
func recordReference(path, seedList, dir string, stderr io.Writer) error {
	list, err := parseSeeds(seedList)
	if err != nil {
		return err
	}
	ref := reference{}
	if data, err := os.ReadFile(path); err == nil {
		if ref, err = loadReference(data); err != nil {
			return err
		}
	}
	for _, w := range workloads {
		for _, seed := range list {
			// Verify against invariants only: the run defines the entry.
			v := &verifier{w: w, seed: seed, ref: reference{}}
			o := v.run(dir, hooks{})
			if o == nil {
				return v.errs[0]
			}
			ref[refKey(w.name, seed)] = *v.first
			fmt.Fprintf(stderr, "flbench: recorded %s seed %d\n", w.name, seed)
		}
	}
	return writeReference(path, ref)
}
