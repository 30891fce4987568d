//go:build go1.23

// This file needs iter.Pull, so it carries a go1.23 build constraint while
// go.mod stays at go 1.22: raising the module's go line would force every
// module that requires this one to raise its own. Building the package needs
// a Go 1.23 or newer toolchain.

package sched

import "iter"

// engine is a dispatch policy over the shared driver state: the sequential
// dispatcher or the commuter.
type engine interface {
	gate
	dispatch(self int) verdict
}

// drive runs body once per process as a coroutine under e's grants. Start-up
// resumes the bodies in pid order until each reaches its first Step or
// returns, so preamble code (which may emit trace events) runs in pid order;
// only then does the calling goroutine issue the first dispatch and pass the
// token on. From there the token holders pass it among themselves (see
// driver.pass) until the run is over.
//
// A halt unwinds every process on the resume chain with haltSignal; the
// deferred stops then make every suspended park panic haltSignal too, each
// recovered inside its own coroutine. Any other panic escapes next down to
// the calling goroutine, and the same stops release the other processes
// while it propagates.
func drive(e engine, d *driver, seed int64, body func(*Proc)) (Result, error) {
	procs := newProcs(d.n, seed, e)
	defer releaseProcs(procs)
	for i, p := range procs {
		s := &d.slots[i]
		s.next, s.stop = iter.Pull(func(yield func(struct{}) bool) {
			s.yield = yield
			defer func() {
				if rec := recover(); rec != nil {
					if _, ok := rec.(haltSignal); !ok {
						panic(rec) // real bug in the algorithm body: propagate
					}
				}
			}()
			body(p)
			if d.retire(p) {
				e.dispatch(-1)
			}
		})
	}
	defer func() {
		for i := range d.slots {
			d.slots[i].stop()
		}
	}()
	for i := range d.slots {
		d.resume(i)
	}
	if len(d.live) > 0 {
		e.dispatch(-1)
	}
	d.pass(-1)
	d.flushGrants()
	if d.badPick != "" {
		panic(d.badPick)
	}
	return d.result(), d.err
}
