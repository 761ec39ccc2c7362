package events

import (
	"testing"

	"holmes/internal/leakcheck"
)

// TestMain fails the package when goroutines outlive the suite: no
// publisher or subscriber a test starts may outlive its hub.
func TestMain(m *testing.M) { leakcheck.Main(m) }
