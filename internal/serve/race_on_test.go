//go:build race

package serve

// raceEnabled reports that the race detector is on, under which sync.Pool
// drops a quarter of what is put into it on purpose.
const raceEnabled = true
