package svm

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// TestWorkspaceMatchesFreshTrain trains a sequence of problems whose l
// and d grow and shrink on one Workspace, at two values of ν, and
// requires each model to be bit-equal to a fresh Train's. A buffer the
// solver failed to reset would carry the previous problem's α, gradient
// or kernel rows into the next one. Each model
// must also hold its support vectors once, as full-capacity views of
// the matrix DecisionBatchInto reads, so its first decision allocates
// nothing; and later problems must not disturb earlier models.
func TestWorkspaceMatchesFreshTrain(t *testing.T) {
	rng := rand.New(rand.NewSource(108))
	shapes := []struct{ l, d int }{{60, 96}, {7, 32}, {120, 108}, {1, 32}, {60, 96}}
	cfgs := []Config{{Nu: 0.1}, {Nu: 0.5}}
	var ws Workspace
	type trained struct {
		name string
		m    *OneClass
		want []byte
	}
	var models []trained
	for _, cfg := range cfgs {
		for _, sh := range shapes {
			name := fmt.Sprintf("nu=%v l=%d d=%d", cfg.Nu, sh.l, sh.d)
			data := make([][]float64, sh.l)
			for i := range data {
				data[i] = make([]float64, sh.d)
				for j := range data[i] {
					data[i][j] = rng.NormFloat64()
				}
			}
			fresh, err := Train(data, cfg)
			if err != nil {
				t.Fatalf("%s: fresh Train: %v", name, err)
			}
			m, err := ws.Train(data, cfg)
			if err != nil {
				t.Fatalf("%s: Workspace.Train: %v", name, err)
			}
			sameModel(t, name, m, fresh)
			checkFlat(t, name, m)
			xs := data[:min(4, len(data))]
			dst := make([]float64, len(xs))
			if !raceDetectorEnabled {
				if n := mallocs(func() { m.DecisionBatchInto(dst, xs) }); n != 0 {
					t.Errorf("%s: first DecisionBatchInto allocated %d objects, want 0", name, n)
				}
			}
			models = append(models, trained{name, m, encodeModel(t, fresh)})
		}
	}
	for _, tm := range models {
		if !bytes.Equal(encodeModel(t, tm.m), tm.want) {
			t.Errorf("%s: gob encoding differs from a fresh Train's after the workspace trained later problems", tm.name)
		}
	}
}

// sameModel requires got to be bit-equal to want in every trained field.
func sameModel(t *testing.T, name string, got, want *OneClass) {
	t.Helper()
	if got.Iters != want.Iters {
		t.Fatalf("%s: Iters %d, fresh Train %d", name, got.Iters, want.Iters)
	}
	if math.Float64bits(got.Rho) != math.Float64bits(want.Rho) {
		t.Fatalf("%s: Rho %x, fresh Train %x", name, math.Float64bits(got.Rho), math.Float64bits(want.Rho))
	}
	sameBits(t, name+" Alpha", got.Alpha, want.Alpha)
	if len(got.Support) != len(want.Support) {
		t.Fatalf("%s: %d support vectors, fresh Train %d", name, len(got.Support), len(want.Support))
	}
	for i := range want.Support {
		sameBits(t, fmt.Sprintf("%s Support[%d]", name, i), got.Support[i], want.Support[i])
	}
	if !bytes.Equal(encodeModel(t, got), encodeModel(t, want)) {
		t.Fatalf("%s: gob encoding differs from a fresh Train's", name)
	}
}

func sameBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, fresh Train %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %x, fresh Train %x", name, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// checkFlat requires every Support row of m to be the full-capacity
// view of its row of m's flat matrix.
func checkFlat(t *testing.T, name string, m *OneClass) {
	t.Helper()
	if len(m.flat) != len(m.Support)*m.Dim {
		t.Fatalf("%s: flat matrix holds %d values for %d×%d support vectors", name, len(m.flat), len(m.Support), m.Dim)
	}
	for i, sv := range m.Support {
		if len(sv) != m.Dim || cap(sv) != m.Dim || &sv[0] != &m.flat[i*m.Dim] {
			t.Fatalf("%s: Support[%d] (len %d, cap %d) is not the full-capacity view of flat row %d",
				name, i, len(sv), cap(sv), i)
		}
	}
}

func encodeModel(t *testing.T, m *OneClass) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// mallocs counts the heap objects one call of fn allocates. Unlike
// testing.AllocsPerRun it does not warm fn up first, so it sees one-time
// costs such as a lazily built cache.
func mallocs(fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
