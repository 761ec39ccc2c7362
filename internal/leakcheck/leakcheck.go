// Package leakcheck fails a test binary whose goroutines outlive its
// tests: every server, operator, hub and worker a test starts must be
// gone when the suite ends. A package opts in with
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
package leakcheck

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"testing"
	"time"
)

// settle is how long the goroutine count gets to fall back to where it
// started: whatever the last test closed may still be unwinding.
const settle = 5 * time.Second

// Main runs the package's tests and exits, failing the run when more
// goroutines are alive after them than before. Idle connections of
// http.DefaultClient are closed first: their read and write loops
// outlive every test that used the default client. A fuzzing run skips
// the check, since the fuzz engine's signal handler lives as long as the
// process.
func Main(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 && flag.Lookup("test.fuzz").Value.String() == "" {
		http.DefaultClient.CloseIdleConnections()
		if err := check(before, settle); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

// check waits up to wait for the goroutine count to fall to before, and
// reports every goroutine's stack when it does not.
func check(before int, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<20)
		return fmt.Errorf("%d goroutines outlived the suite (%d at start):\n%s",
			n-before, before, buf[:runtime.Stack(buf, true)])
	}
	return nil
}
