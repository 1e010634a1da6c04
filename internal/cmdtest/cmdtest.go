// Package cmdtest lets a command's test binary stand in for the command, so
// its tests see real flag parsing, exit codes and files without a build
// step: TestMain hands control to Main, and Run re-executes the test binary
// with a marker in the environment that makes Main call the command's
// main() instead of the tests.
package cmdtest

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

const beMain = "HDC_CMDTEST_BE_MAIN"

// Main is the body of the command's TestMain.
func Main(m *testing.M, main func()) {
	if os.Getenv(beMain) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Run runs the command on args and returns its output and exit code.
func Run(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), beMain+"=1")
	var out, errb strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return out.String(), errb.String(), ee.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return out.String(), errb.String(), 0
}

// IsPprof reports whether path holds a profile as runtime/pprof writes
// them: a non-empty gzip stream.
func IsPprof(t *testing.T, path string) bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return len(data) > 2 && data[0] == 0x1f && data[1] == 0x8b
}
