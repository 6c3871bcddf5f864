//go:build race

package fh

// poison turns on the Pool's release checks (see Pool): the race detector's
// builds are the ones that hunt use-after-release.
const poison = true
