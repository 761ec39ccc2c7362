package fleet

import (
	"testing"

	"holmes/internal/leakcheck"
)

// TestMain fails the package when goroutines outlive the suite: every
// test must close the operators it opens.
func TestMain(m *testing.M) { leakcheck.Main(m) }
