package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestLockModelFlag drives the built binary: the two lock models run, and
// the deleted per-subsystem model is a usage error that names them.
func TestLockModelFlag(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "flukerun")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, lm := range []string{"big", "fine"} {
		out, err := exec.Command(bin, "-workload", "flukeperf", "-fast", "-cpus", "2", "-lockmodel", lm).CombinedOutput()
		if err != nil || !strings.Contains(string(out), lm+" lock") {
			t.Fatalf("-lockmodel %s: %v\n%s", lm, err, out)
		}
	}
	out, err := exec.Command(bin, "-lockmodel", "persub").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("-lockmodel persub: err = %v, want a non-zero exit\n%s", err, out)
	}
	if want := `unknown lock model "persub" (want big or fine)`; !strings.Contains(string(out), want) {
		t.Fatalf("-lockmodel persub: output lacks %q:\n%s", want, out)
	}
}
