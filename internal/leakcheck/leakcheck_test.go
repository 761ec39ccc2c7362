package leakcheck

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestMain(m *testing.M) { Main(m) }

// TestCheckReportsALeak parks one goroutine past the check's wait: the
// check must name it, and pass once it exits.
func TestCheckReportsALeak(t *testing.T) {
	before := runtime.NumGoroutine()
	stop := make(chan struct{})
	go parked(stop)
	err := check(before, 20*time.Millisecond)
	close(stop)
	if err == nil {
		t.Fatal("a parked goroutine passed the check")
	}
	if msg := err.Error(); !strings.HasPrefix(msg, "1 goroutines outlived") || !strings.Contains(msg, "leakcheck.parked") {
		t.Fatalf("the report does not name the leaked goroutine:\n%.400s", msg)
	}
	if err := check(before, time.Second); err != nil {
		t.Fatalf("the count did not settle after the goroutine exited: %v", err)
	}
}

func parked(stop <-chan struct{}) { <-stop }
