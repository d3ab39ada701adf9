package switchml

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Collective is any endpoint that can all-reduce tensors: an
// in-process cluster Worker or a UDP Peer.
//
// Implementations whose fabric can fail (a UDP Peer without an armed
// fallback) report a dead aggregator as an error matching
// ErrSwitchUnavailable: the tensor was fine and the call may be
// retried once the fabric recovers, with the same slice, which
// continues the failed call's tensor; another slice returns
// ErrTensorOpen while that tensor is open. Sessions pass such errors
// through to the submitting Future unchanged.
type Collective interface {
	// AllReduceInt32 sums an int32 tensor across all workers.
	AllReduceInt32(u []int32) ([]int32, error)
	// AllReduceFloat32 sums a float32 tensor across all workers.
	AllReduceFloat32(u []float32) ([]float32, error)
}

var (
	_ Collective = (*Worker)(nil)
	_ Collective = (*Peer)(nil)
)

// Session is the ML-framework integration layer of the paper (§4,
// Appendix B): back-propagation emits one gradient tensor per layer,
// and the session streams them to the aggregator as one continuous
// sequence — each tensor's aggregation overlaps the computation (and
// submission) of the ones behind it, while results are steered back
// to the right caller.
//
// Every worker must submit the same tensors in the same order, the
// requirement the paper notes matches Horovod's coordinator and needs
// a one-line change in Caffe2. Submissions may come from any
// goroutine; their order is the order Submit calls complete, so
// callers coordinating across goroutines must serialize their Submit
// calls (not the Waits).
type Session struct {
	mu     sync.Mutex
	c      Collective
	queue  chan *Future
	closed bool
	wg     sync.WaitGroup

	submitted, completed, failed atomic.Uint64
	lastNs                       atomic.Int64
}

// SessionStats is a point-in-time snapshot of a session's streaming
// activity, safe to read from any goroutine (monitoring dashboards
// poll it while training runs).
type SessionStats struct {
	// Submitted counts tensors accepted by Submit*.
	Submitted uint64
	// Completed counts tensors aggregated successfully; Failed those
	// whose aggregation returned an error.
	Completed uint64
	Failed    uint64
	// Queued is the number of tensors waiting behind the one in
	// flight right now.
	Queued int
	// LastTensorNs is the wall-clock duration of the most recently
	// finished aggregation, in nanoseconds (0 before the first).
	LastTensorNs int64
}

// Stats snapshots the session's counters.
func (s *Session) Stats() SessionStats {
	return SessionStats{
		Submitted:    s.submitted.Load(),
		Completed:    s.completed.Load(),
		Failed:       s.failed.Load(),
		Queued:       len(s.queue),
		LastTensorNs: s.lastNs.Load(),
	}
}

// ErrSessionClosed is returned for submissions to a closed session.
var ErrSessionClosed = errors.New("switchml: session closed")

// Future is a pending aggregation handed out by Submit.
type Future struct {
	done chan struct{}
	fi   []int32
	ff   []float32
	err  error

	inInt   []int32
	inFloat []float32
}

// Wait blocks until the tensor is aggregated and returns the float32
// result (for SubmitFloat32 futures).
func (f *Future) Wait() ([]float32, error) {
	<-f.done
	return f.ff, f.err
}

// WaitInt32 blocks until the tensor is aggregated and returns the
// int32 result (for SubmitInt32 futures).
func (f *Future) WaitInt32() ([]int32, error) {
	<-f.done
	return f.fi, f.err
}

// NewSession starts a streaming session over the given endpoint.
// buffer is the number of tensors that may be queued behind the one
// in flight (back-propagation produces tensors faster than the
// network drains them); zero selects 16.
func NewSession(c Collective, buffer int) (*Session, error) {
	if c == nil {
		return nil, fmt.Errorf("switchml: nil collective")
	}
	if buffer <= 0 {
		buffer = 16
	}
	s := &Session{c: c, queue: make(chan *Future, buffer)}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for f := range s.queue {
			// Tensors are aggregated independently but sequentially
			// (§4); the switch state flows across them as one stream.
			start := time.Now()
			if f.inInt != nil {
				f.fi, f.err = c.AllReduceInt32(f.inInt)
			} else {
				f.ff, f.err = c.AllReduceFloat32(f.inFloat)
			}
			s.lastNs.Store(time.Since(start).Nanoseconds())
			if f.err != nil {
				s.failed.Add(1)
			} else {
				s.completed.Add(1)
			}
			close(f.done)
		}
	}()
	return s, nil
}

// SubmitFloat32 enqueues a gradient tensor and returns its future.
// The tensor must not be mutated until Wait returns.
func (s *Session) SubmitFloat32(t []float32) (*Future, error) {
	f := &Future{done: make(chan struct{}), inFloat: t}
	return f, s.submit(f)
}

// SubmitInt32 enqueues an integer tensor and returns its future.
func (s *Session) SubmitInt32(t []int32) (*Future, error) {
	f := &Future{done: make(chan struct{}), inInt: t}
	return f, s.submit(f)
}

func (s *Session) submit(f *Future) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSessionClosed
	}
	s.queue <- f
	s.submitted.Add(1)
	return nil
}

// Drainer is a Collective that supports a graceful leave: after
// finishing its in-flight work it departs the job without tripping
// the failure detector. A UDP Peer implements it.
type Drainer interface {
	Drain() error
}

// Drain gracefully retires this worker from the job: the session
// stops accepting tensors, every queued tensor is still aggregated
// (the drain window), and then the endpoint announces its departure —
// the membership shrinks at a step boundary and the survivors keep
// training. Returns ErrSessionClosed if the session was already
// closed, and the endpoint's error if it does not support leaving or
// the leave fails.
func (s *Session) Drain() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrSessionClosed
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait() // the queued tensors are the drain window
	d, ok := s.c.(Drainer)
	if !ok {
		return fmt.Errorf("switchml: endpoint %T cannot leave a job gracefully", s.c)
	}
	return d.Drain()
}

// Close drains queued tensors and stops the session. Futures already
// submitted still complete; Wait on them remains valid.
func (s *Session) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait()
}
