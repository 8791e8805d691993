package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestUnknownScaleRejected runs main with an unknown -scale in a child
// process: it must exit with status 2 and name the flag, not fall back
// to the full corpus and record the bogus scale in its output.
func TestUnknownScaleRejected(t *testing.T) {
	if os.Getenv("BENCHALL_TEST_MAIN") == "1" {
		os.Args = []string{"benchall", "-scale", "foo", "-run", "table1"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownScaleRejected$")
	cmd.Env = append(os.Environ(), "BENCHALL_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("benchall -scale foo: %v, want exit status 2\n%s", err, out)
	}
	if !strings.Contains(string(out), `-scale must be small or full, not "foo"`) {
		t.Errorf("benchall -scale foo printed %q", out)
	}
}
