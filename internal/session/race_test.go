//go:build race

package session

// raceEnabled reports a -race build, whose sync.Pool drops items at
// random, so a pooled queue buffer is sometimes allocated afresh.
const raceEnabled = true
