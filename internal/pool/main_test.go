package pool

import (
	"testing"

	"holmes/internal/leakcheck"
)

// TestMain fails the package when goroutines outlive the suite: Run's
// workers must all have returned when Run does, panics included.
func TestMain(m *testing.M) { leakcheck.Main(m) }
