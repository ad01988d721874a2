package hunt

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"deepvalidation/internal/core"
	"deepvalidation/internal/nn"
	"deepvalidation/internal/opt"
)

// TestPipelineDeterministicAcrossWorkers is the one table of the
// pipeline's worker-count claims: training, Fit, batch scoring and a
// hunt each produce the same bytes at 1, 2 and 4 workers — trained
// parameter bits, the validator's gob, every scoring result's bits and
// the saved corpus. The per-package tests keep their finer probes
// (dropout-free and dropout batch steps, structural Fit diffs, escape
// replays); this one lines every stage up against the same worker
// counts on the toy fixture.
func TestPipelineDeterministicAcrossWorkers(t *testing.T) {
	tgt, _, _, _ := toyTarget(t)
	xs, ys := toyProblem(rand.New(rand.NewSource(21)), 90)
	stages := []struct {
		name string
		run  func(t *testing.T, workers int) []byte
	}{
		{"train", func(t *testing.T, workers int) []byte {
			net, err := nn.NewSevenLayerCNN("toy", 1, 8, 3, nn.ArchConfig{Width: 4, FCWidth: 16, Dropout: 0.25}, rand.New(rand.NewSource(31)))
			if err != nil {
				t.Fatal(err)
			}
			tr := nn.NewTrainer(net, opt.NewAdadelta(1.0, 0.95), rand.New(rand.NewSource(32)))
			tr.BatchSize = 16
			tr.Workers = workers
			if _, err := tr.Train(xs, ys, 2); err != nil {
				t.Fatal(err)
			}
			var b []byte
			for _, p := range net.Params() {
				for _, v := range p.Value.Data {
					b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
				}
			}
			return b
		}},
		{"fit", func(t *testing.T, workers int) []byte {
			val, err := core.Fit(tgt.Net, xs, ys, core.Config{Nu: 0.1, MaxPerClass: 30, MaxFeatures: 64, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := val.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}},
		{"score", func(t *testing.T, workers int) []byte {
			var b []byte
			for _, r := range tgt.Val.ScoreBatchWorkers(tgt.Net, xs, workers) {
				b = binary.LittleEndian.AppendUint64(b, uint64(r.Label))
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.Confidence))
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.Joint))
				for _, d := range r.Layer {
					b = binary.LittleEndian.AppendUint64(b, math.Float64bits(d))
				}
				if r.NonFinite {
					b = append(b, 1)
				}
			}
			return b
		}},
		{"hunt", func(t *testing.T, workers int) []byte {
			dir := t.TempDir()
			huntOnce(t, dir, workers)
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) < 2 {
				t.Fatalf("corpus tree suspiciously small: %d files", len(entries))
			}
			var b []byte
			for _, e := range entries {
				data, err := os.ReadFile(filepath.Join(dir, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				b = append(append(append(b, e.Name()...), 0), data...)
			}
			return b
		}},
	}
	for _, st := range stages {
		t.Run(st.name, func(t *testing.T) {
			want := st.run(t, 1)
			for _, workers := range []int{2, 4} {
				if got := st.run(t, workers); !bytes.Equal(got, want) {
					t.Errorf("%s output at %d workers differs from 1 worker (%d vs %d bytes)", st.name, workers, len(got), len(want))
				}
			}
		})
	}
}
