package fleet

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain fails the package when goroutines outlive the suite: every
// test must close the operators it opens. The count has a few seconds
// to settle back to where it started. A fuzzing run skips the check:
// the fuzz engine's signal handler lives as long as the process.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 && flag.Lookup("test.fuzz").Value.String() == "" {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			buf := make([]byte, 1<<20)
			fmt.Fprintf(os.Stderr, "%d goroutines outlived the suite (%d at start):\n%s\n",
				n-before, before, buf[:runtime.Stack(buf, true)])
			code = 1
		}
	}
	os.Exit(code)
}
