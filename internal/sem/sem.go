// Package sem provides a counting semaphore with the POSIX sem_t surface
// (post / wait / trywait) that the paper substitutes for condition variables
// when transactionalizing memcached's maintenance-thread wake-ups (§3.2,
// Figure 2).
//
// The transformation depends on two properties of a semaphore that a condvar
// lacks: posts are never lost (the count accumulates), and posting requires no
// associated mutex — which is what lets worker threads move the post out of
// the critical section and eventually into an onCommit handler.
package sem

import "sync"

// Sem is a counting semaphore. The zero value is a semaphore with count 0,
// ready to use.
type Sem struct {
	mu    sync.Mutex
	cond  *sync.Cond
	count int
	post  func() // Post bound to this semaphore by New (see PostFunc)
}

// New returns a semaphore with the given initial count.
func New(initial int) *Sem {
	if initial < 0 {
		panic("sem: negative initial count")
	}
	s := &Sem{count: initial}
	s.post = s.Post
	return s
}

func (s *Sem) ensureCond() {
	if s.cond == nil {
		s.cond = sync.NewCond(&s.mu)
	}
}

// Post increments the count, waking one waiter (sem_post).
func (s *Sem) Post() {
	s.mu.Lock()
	s.ensureCond()
	s.count++
	s.cond.Signal()
	s.mu.Unlock()
}

// PostFunc returns Post as a func() value. New makes the method value once, so
// a caller that hands sem_post to something taking a func() — an onCommit
// handler registered on every eviction — allocates nothing; a zero-value Sem
// pays for a fresh one per call.
func (s *Sem) PostFunc() func() {
	if s.post != nil {
		return s.post
	}
	return s.Post
}

// Wait blocks until the count is positive, then decrements it (sem_wait).
func (s *Sem) Wait() {
	s.mu.Lock()
	s.ensureCond()
	for s.count == 0 {
		s.cond.Wait()
	}
	s.count--
	s.mu.Unlock()
}

// TryWait decrements the count if it is positive and reports whether it did
// (sem_trywait).
func (s *Sem) TryWait() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count == 0 {
		return false
	}
	s.count--
	return true
}

// Value returns the current count (sem_getvalue); advisory only.
func (s *Sem) Value() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}
