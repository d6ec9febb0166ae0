//go:build race

package tensor

// raceEnabled gates exact allocation-count assertions: the race detector
// instruments the allocator, so counts differ under -race while the code
// paths themselves still run.
const raceEnabled = true
