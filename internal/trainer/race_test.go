//go:build race

package trainer

// The race detector slows a simulation several-fold, and the fold
// sweeps run each simulation on one goroutine: they sweep one parameter
// group under it.
func init() { foldGroups, scheduleGroups = foldGroups[:1], scheduleGroups[:1] }
