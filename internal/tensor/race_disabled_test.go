//go:build !race

package tensor

// raceEnabled gates exact allocation-count assertions; see
// race_enabled_test.go.
const raceEnabled = false
