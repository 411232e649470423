//go:build race

package main

// raceEnabled reports that the race detector is on, under which lexing a
// large spec is several times slower.
const raceEnabled = true
