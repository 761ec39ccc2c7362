package api

import (
	"testing"

	"holmes/internal/leakcheck"
)

// TestMain fails the package when goroutines outlive the suite: every
// test server must close its listener and its fleet operators.
func TestMain(m *testing.M) { leakcheck.Main(m) }
