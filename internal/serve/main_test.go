package serve

import (
	"testing"

	"holmes/internal/leakcheck"
)

// TestMain fails the package when goroutines outlive the suite: every
// coalesced call a test starts must finish, waiters included.
func TestMain(m *testing.M) { leakcheck.Main(m) }
