// Package golife is a lint fixture for the goroutine-lifecycle prover: join
// evidence, and the inescapable loops that void it.
package golife

import (
	"context"
	"sync"
)

type server struct {
	stop chan struct{}
	done chan struct{}
	work chan int
	wg   sync.WaitGroup
}

// run drains until the stop channel closes: Close can stop it but has
// nothing to wait on, so it is not joined.
func (s *server) run() {
	for {
		select {
		case <-s.stop:
			return
		}
	}
}

// serve signals completion on done — joined because Close receives from it
// (done-channel evidence).
func (s *server) serve() {
	defer close(s.done)
}

func (s *server) start() {
	s.wg.Add(1)
	go func() { // waitgroup join
		defer s.wg.Done()
	}()
	go s.run()   // want "spawns run with no provable join"
	go s.serve() // done-channel join
	go orphan()  // want "spawns orphan with no provable join"
	fn := orphan
	go fn() // want "spawns a goroutine through a function value"
}

// viaHelper proves the join transitively: the literal's only statement is
// a call whose body holds the Done.
func (s *server) viaHelper() {
	s.wg.Add(1)
	go func() {
		s.finish()
	}()
}

func (s *server) finish() {
	s.wg.Done()
}

func (s *server) Close() {
	close(s.stop)
	s.wg.Wait()
	<-s.done
}

// orphan ends, but nothing can wait for it to.
func orphan() {}

// watch observes cancellation, which stops it but joins nothing.
func watch(ctx context.Context) {
	go func() { // want "spawns function literal with no provable join"
		<-ctx.Done()
	}()
}

// nested: the inner spawn's Done must not join the outer goroutine.
func nested(wg *sync.WaitGroup) {
	go func() { // want "spawns function literal with no provable join"
		go func() {
			wg.Done()
		}()
	}()
}

func (s *server) loops() {
	go func() { // want "spawns function literal with no reachable exit: the infinite loop at"
		for {
			select {
			case v := <-s.work:
				_ = v
			}
		}
	}()
	go func() { // want "spawns function literal with no provable join": the stop case returns, but nothing waits
		for {
			select {
			case <-s.stop:
				return
			case v := <-s.work:
				_ = v
			}
		}
	}()
	go deep()           // want "spawns deep with no reachable exit"
	go s.selectBreak()  // want "spawns selectBreak with no reachable exit"
	go s.labeledBreak() // want "spawns labeledBreak with no provable join": break Loop leaves the loop
	go s.innerLabel()   // want "spawns innerLabel with no reachable exit"
	s.wg.Add(2)
	go s.accept()        // want "spawns accept with no reachable exit"
	go s.continueOuter() // silent: continue Outer leaves the inner loop
}

// deep hides the loop one call below the spawned function.
func deep() {
	helper()
}

func helper() {
	n := 0
	for {
		n++
	}
}

// selectBreak receives from the teardown-closed stop channel, but its break
// only leaves the select: the goroutine outlives Close.
func (s *server) selectBreak() {
	for {
		select {
		case <-s.stop:
			break
		case v := <-s.work:
			_ = v
		}
	}
}

func (s *server) labeledBreak() {
Loop:
	for {
		select {
		case <-s.stop:
			break Loop
		case v := <-s.work:
			_ = v
		}
	}
}

// innerLabel's break names the select, not the loop.
func (s *server) innerLabel() {
	for {
	Recv:
		select {
		case <-s.stop:
			break Recv
		case v := <-s.work:
			_ = v
		}
	}
}

// accept has a WaitGroup join, but the loop it reaches first never ends,
// so the Done never runs.
func (s *server) accept() {
	defer s.wg.Done()
	for {
		if _, ok := <-s.work; !ok {
			continue
		}
	}
}

func (s *server) continueOuter() {
	defer s.wg.Done()
Outer:
	for i := 0; i < 3; i++ {
		for {
			if v := <-s.work; v > i {
				continue Outer
			}
		}
	}
}
