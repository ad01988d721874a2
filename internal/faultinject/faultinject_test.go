package faultinject

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestCheckDisarmed(t *testing.T) {
	t.Cleanup(Reset)
	Reset()
	if err := Check("nothing.armed"); err != nil {
		t.Fatalf("disarmed point returned %v", err)
	}
}

func TestArmNilFails(t *testing.T) {
	t.Cleanup(Reset)
	Arm("test.point", nil)
	err := Check("test.point")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("armed point returned %v, want ErrInjected", err)
	}
	if err := Check("test.other"); err != nil {
		t.Fatalf("unarmed sibling point returned %v", err)
	}
}

// TestArmError: a point armed with a function returns that function's
// error, and arming a second point keeps the first.
func TestArmError(t *testing.T) {
	t.Cleanup(Reset)
	sentinel := errors.New("boom")
	Arm("test.point", func() error { return sentinel })
	Arm("test.other", nil)
	if err := Check("test.point"); !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want the armed sentinel", err)
	}
}

// TestDisarm: Reset disarms every armed point.
func TestDisarm(t *testing.T) {
	t.Cleanup(Reset)
	Arm("test.point", nil)
	Arm("test.other", nil)
	Reset()
	for _, name := range []string{"test.point", "test.other"} {
		if err := Check(name); err != nil {
			t.Fatalf("%s returned %v after Reset", name, err)
		}
	}
}

func TestArmCount(t *testing.T) {
	t.Cleanup(Reset)
	ArmCount("test.flaky", 2)
	for i := 0; i < 2; i++ {
		if err := Check("test.flaky"); !errors.Is(err, ErrInjected) {
			t.Fatalf("call %d: got %v, want ErrInjected", i, err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := Check("test.flaky"); err != nil {
			t.Fatalf("post-budget call %d: got %v, want nil", i, err)
		}
	}
}

// TestConcurrentArmCheck exercises the copy-on-write map under -race:
// concurrent Arm/Reset/Check must never trip the detector or observe
// a partial map.
func TestConcurrentArmCheck(t *testing.T) {
	t.Cleanup(Reset)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				Arm("test.race", nil)
				_ = Check("test.race")
				Reset()
			}
		}()
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				_ = Check("test.race")
				_ = Check("test.unrelated")
			}
		}()
	}
	wg.Wait()
}

func TestFlipBit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, []byte{0x00, 0xFF}, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := FlipBit(path, 0, 3); err != nil {
		t.Fatal(err)
	}
	if err := FlipBit(path, 1, 0); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0x08 || got[1] != 0xFE {
		t.Fatalf("file is % x, want 08 fe", got)
	}
	// Flip back restores the original.
	if err := FlipBit(path, 0, 3); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(path)
	if got[0] != 0x00 {
		t.Fatalf("double flip left byte 0 at %#x", got[0])
	}
	if err := FlipBit(path, 0, 8); err == nil {
		t.Fatal("bit 8 accepted")
	}
	if err := FlipBit(path, 99, 0); err == nil {
		t.Fatal("offset beyond EOF accepted")
	}
}

func TestTruncate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, []byte("0123456789"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Truncate(path, 4); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "0123" {
		t.Fatalf("truncated file is %q", got)
	}
	if err := Truncate(filepath.Join(t.TempDir(), "missing"), 0); err == nil {
		t.Fatal("truncating a missing file succeeded")
	}
}
