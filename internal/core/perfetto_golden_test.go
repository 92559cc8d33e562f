package core

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/flwork"
	"repro/internal/model"
	"repro/internal/obs"
)

var updatePerfetto = flag.Bool("update", false, "rewrite testdata/perfetto/*.json with current output")

// TestPerfettoGolden pins every system's virtual-time span output: a short
// fixed-seed TinyFL run per system with a telemetry registry attached, its
// Registry.Perfetto() export compared byte for byte against
// testdata/perfetto/<system>.json. The envelopes come from the round (or
// version) loop and the Network/Agg/Eval spans from the system's own
// producers, so a drift in either shows up as a golden diff. Regenerate
// with `go test ./internal/core -run PerfettoGolden -update`.
func TestPerfettoGolden(t *testing.T) {
	for _, kind := range []SystemKind{SystemLIFL, SystemSLH, SystemSL, SystemSF, SystemAsync} {
		t.Run(string(kind), func(t *testing.T) {
			reg := obs.New(obs.Options{})
			_, err := Run(RunConfig{
				System:         kind,
				Model:          model.TinyFL,
				Clients:        64,
				ActivePerRound: 8,
				Class:          flwork.Mobile,
				MaxRounds:      3,
				Seed:           1,
				Telemetry:      reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			got := reg.Perfetto()
			path := filepath.Join("testdata", "perfetto", string(kind)+".json")
			if *updatePerfetto {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("Perfetto export drifted from %s (re-run with -update if intended):\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}
		})
	}
}
