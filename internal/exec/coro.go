//go:build go1.23

package exec

import "iter"

// spawn makes rank p a coroutine that runs body when Run's goroutine first
// resumes it (p.next). Inside, p.yield switches back to Run's goroutine;
// when the body returns or unwinds, exit retires the rank and the
// coroutine ends.
func (e *SimEnv) spawn(p *Proc, body func(p *Proc)) {
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		returned := false
		defer func() { e.exit(p, recover(), returned) }()
		if e.aborting {
			panic(procAbort{})
		}
		body(p)
		returned = true
	})
}
