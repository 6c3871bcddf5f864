//go:build race

package core

// raceEnabled reports that this binary was built with the race detector.
// Race instrumentation multiplies memory-access costs unevenly across the
// traced and untraced variants, so wall-clock comparisons are meaningless.
const raceEnabled = true
