//go:build !linux || !(amd64 || arm64)

package shmfab

// sleeper without futexes: the poller looks at the words every 50 µs for
// at most a millisecond (pollBells).
type sleeper struct{ words []*uint32 }

func newSleeper(words []*uint32) *sleeper { return &sleeper{words: words} }

// wait returns once any word is no longer armed, or after a millisecond.
func (s *sleeper) wait() { pollBells(s.words) }
