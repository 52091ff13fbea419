//go:build race

package server

// raceEnabled reports a -race build, whose sync.Pool (encoding/json
// pools its encoders and scanners) drops items at random, so allocation
// counts vary with the size of what a pooled buffer held.
const raceEnabled = true
