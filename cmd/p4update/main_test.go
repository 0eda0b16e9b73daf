package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCLI builds the command once into a temporary directory and
// returns the binary's path.
func buildCLI(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds the p4update binary; skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "p4update")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// run executes the binary in a scratch directory and returns its
// combined output and exit status.
func run(t *testing.T, bin string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = t.TempDir()
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		return string(out), exit.ExitCode()
	case err != nil:
		t.Fatalf("%v: %v", args, err)
	}
	return string(out), 0
}

func TestCLI(t *testing.T) {
	bin := buildCLI(t)

	// Every -exp list row names an experiment -exp accepts, and its smoke
	// run, cut down to one system on one worker, exits 0 and prints its
	// table header.
	t.Run("list", func(t *testing.T) {
		out, code := run(t, bin, "-exp", "list")
		if code != 0 {
			t.Fatalf("-exp list exited %d:\n%s", code, out)
		}
		var want []string
		for _, e := range table {
			if e.smoke != "" {
				want = append(want, e.name)
			}
		}
		rows := strings.Split(strings.TrimSpace(out), "\n")
		if len(rows) != len(want) {
			t.Fatalf("-exp list printed %d rows, want one for each of %v:\n%s", len(rows), want, out)
		}
		for i, row := range rows {
			f := strings.Fields(row)
			if len(f) < 3 || f[0] != want[i] || f[1] != "-exp" || f[2] != f[0] {
				t.Fatalf("row %q: want %s -exp %[2]s ARGS...", row, want[i])
			}
			args := append(f[1:], "-systems", "p4update", "-workers", "1")
			got, code := run(t, bin, args...)
			if code != 0 || !strings.Contains(got, "== ") {
				t.Errorf("%s: exit %d, want 0 and an == header:\n%s", f[0], code, got)
			}
		}
	})

	// Counts below one and unknown experiments are usage errors: exit 2
	// with a message, never a panic or an empty table.
	t.Run("usage errors", func(t *testing.T) {
		for _, args := range [][]string{
			{"-exp", "fig7", "-runs", "-1"},
			{"-exp", "soak", "-runs", "-2"},
			{"-exp", "fig8", "-updates", "0"},
			{"-exp", "fig7", "-runs", "0"},
			{"-exp", "fig8", "-updates", "-5"},
			{"-exp", "nope"},
		} {
			out, code := run(t, bin, args...)
			if code != 2 || strings.Contains(out, "panic:") {
				t.Errorf("%v: exit %d, want 2 without a panic:\n%s", args, code, out)
			}
		}
	})
}
