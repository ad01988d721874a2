package core

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"deepvalidation/internal/artifact"
	"deepvalidation/internal/faultinject"
	"deepvalidation/internal/nn"
)

func goldenArtifact(name string) string {
	return filepath.Join("..", "..", "artifacts", "golden", name)
}

// TestLoadPairMatchesSequential: at GOMAXPROCS 1, 2 and 4, the network
// and validator LoadPair returns for each golden container pair
// re-encode to the bytes of the ones nn.LoadInfo and LoadValidatorInfo
// load in sequence, and LoadPair reports the same artifact.Info.
func TestLoadPairMatchesSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	encode := func(a interface{ Encode(io.Writer) error }) []byte {
		var buf bytes.Buffer
		if err := a.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, validator := range []string{"validator.dvart", "validator_norms.dvart"} {
			modelPath, valPath := goldenArtifact("model.dvart"), goldenArtifact(validator)
			net, mInfo, err := nn.LoadInfo(modelPath)
			if err != nil {
				t.Fatal(err)
			}
			val, vInfo, err := LoadValidatorInfo(valPath)
			if err != nil {
				t.Fatal(err)
			}
			p, err := LoadPair(modelPath, valPath)
			if err != nil {
				t.Fatalf("GOMAXPROCS %d, %s: %v", procs, validator, err)
			}
			if !bytes.Equal(encode(p.Net), encode(net)) {
				t.Errorf("GOMAXPROCS %d, %s: the pair's network re-encodes differently", procs, validator)
			}
			if !bytes.Equal(encode(p.Val), encode(val)) {
				t.Errorf("GOMAXPROCS %d, %s: the pair's validator re-encodes differently", procs, validator)
			}
			if !reflect.DeepEqual(p.ModelInfo, mInfo) || !reflect.DeepEqual(p.ValidatorInfo, vInfo) {
				t.Errorf("GOMAXPROCS %d, %s: infos %+v, %+v; sequential %+v, %+v", procs, validator, p.ModelInfo, p.ValidatorInfo, mInfo, vInfo)
			}
		}
	}
}

// TestLoadPairErrors pins which error LoadPair returns: the model's when
// both files are bad, whichever load finishes first, with the text
// nn.LoadInfo gives; the validator's when only it is bad; CheckCompat's,
// as an *IncompatibleError, when both load but do not belong together.
// Every failed call joins its second goroutine before it returns. CI
// runs it under -race at -cpu 1,2,4.
func TestLoadPairErrors(t *testing.T) {
	dir := t.TempDir()
	goodModel, goodVal := goldenArtifact("model.dvart"), goldenArtifact("validator.dvart")
	badModel, badVal := filepath.Join(dir, "model.dvart"), filepath.Join(dir, "validator.dvart")
	for src, dst := range map[string]string{goodModel: badModel, goodVal: badVal} {
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// The last byte is inside the payload, so only the checksum
		// can catch the flip.
		if err := faultinject.FlipBit(dst, int64(len(data)-1), 3); err != nil {
			t.Fatal(err)
		}
	}
	stranger, err := LoadValidator(goodVal)
	if err != nil {
		t.Fatal(err)
	}
	stranger.ModelName = "someone-elses-model"
	strangerVal := filepath.Join(dir, "stranger.dvart")
	if err := stranger.Save(strangerVal); err != nil {
		t.Fatal(err)
	}
	net, err := nn.Load(goodModel)
	if err != nil {
		t.Fatal(err)
	}

	_, _, modelErr := nn.LoadInfo(badModel)
	_, _, valErr := LoadValidatorInfo(badVal)
	for _, c := range []struct {
		name, model, val, want string
	}{
		{"both corrupt", badModel, badVal, modelErr.Error()},
		{"model corrupt", badModel, goodVal, modelErr.Error()},
		{"validator corrupt", goodModel, badVal, valErr.Error()},
	} {
		// Repeated, so a loader that returned whichever error came
		// first would be caught at some interleaving.
		for range 20 {
			_, err := LoadPair(c.model, c.val)
			var corrupt *artifact.CorruptError
			if err == nil || err.Error() != c.want || !errors.As(err, &corrupt) {
				t.Fatalf("%s: LoadPair = %v, want %q as an *artifact.CorruptError", c.name, err, c.want)
			}
		}
	}

	_, err = LoadPair(goodModel, strangerVal)
	var incompat *IncompatibleError
	if !errors.As(err, &incompat) || err.Error() != CheckCompat(net, stranger).Error() {
		t.Fatalf("mismatched pair: LoadPair = %v, want CheckCompat's %q as an *IncompatibleError", err, CheckCompat(net, stranger))
	}

	// A model that fails at once must still wait for the validator's
	// load: when LoadPair returns, no goroutine is inside
	// LoadValidatorInfo, and the loader's goroutine exits.
	if _, err := LoadPair(filepath.Join(dir, "missing.dvart"), goodVal); err == nil {
		t.Fatal("missing model loaded")
	}
	if stacks := allStacks(); strings.Contains(stacks, "core.LoadValidatorInfo") {
		t.Fatalf("a validator load outlived LoadPair:\n%s", stacks)
	}
	for deadline := time.Now().Add(5 * time.Second); strings.Contains(allStacks(), "core.LoadPair.func"); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("LoadPair's goroutine did not exit:\n%s", allStacks())
		}
	}
}

func allStacks() string {
	buf := make([]byte, 1<<20)
	return string(buf[:runtime.Stack(buf, true)])
}
