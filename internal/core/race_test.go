//go:build race

package core_test

// Under the race detector TestNameOpsMatchReference checks every fourth
// entry state: the detector slows the reference cross-check about tenfold,
// and the states it skips are checked by the plain test run.
func init() { nameOpsStride = 4 }
