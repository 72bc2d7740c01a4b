//go:build race

package fabric

// raceEnabled reports whether the race detector is compiled in: it makes
// sync.Pool drop a quarter of what it is given back, so allocation pins
// on pooled paths cannot hold under it.
const raceEnabled = true
