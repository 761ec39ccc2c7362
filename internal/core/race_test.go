//go:build race

package core

// The race detector slows a search several-fold; CI's race soak repeats
// the classification test ten times over instead.
func init() { classificationReps = 2 }
