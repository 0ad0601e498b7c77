package server

import (
	"slices"
	"sync"
)

// jobQueue is the bounded FIFO between admission and the workers. Its
// capacity counts only live work: the jobs queued in it plus the
// slots admissions have reserved and not yet filled. Cancel removes
// a queued job at once, so jobs their clients canceled never hold
// slots while every worker is busy.
type jobQueue struct {
	mu       sync.Mutex
	nonEmpty sync.Cond
	jobs     []*Job
	reserved int
	capacity int
	closed   bool
}

func newJobQueue(capacity int) *jobQueue {
	q := &jobQueue{capacity: capacity}
	q.nonEmpty.L = &q.mu
	return q
}

// reserve claims a slot for a job about to be minted, failing when
// the queue is full.
func (q *jobQueue) reserve() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.jobs)+q.reserved >= q.capacity {
		return false
	}
	q.reserved++
	return true
}

// push fills a reserved slot with j. A job canceled between minting
// and push gives its slot back instead. Callers hold Server.admitMu
// shared, so push never follows close.
func (q *jobQueue) push(j *Job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.reserved--
	if j.stateFast().terminal() {
		return
	}
	q.jobs = append(q.jobs, j)
	q.nonEmpty.Signal()
}

// pop takes the oldest job, waiting for one; it reports false once the
// queue is closed and empty.
func (q *jobQueue) pop() (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.jobs) == 0 && !q.closed {
		q.nonEmpty.Wait()
	}
	if len(q.jobs) == 0 {
		return nil, false
	}
	j := q.jobs[0]
	q.jobs[0] = nil
	q.jobs = q.jobs[1:]
	return j, true
}

// remove takes j out of the queue, if a worker has not taken it yet.
func (q *jobQueue) remove(j *Job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if i := slices.Index(q.jobs, j); i >= 0 {
		q.jobs = slices.Delete(q.jobs, i, i+1)
	}
}

// close stops the queue: pop hands out what is left, then reports
// false to every worker.
func (q *jobQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.nonEmpty.Broadcast()
}

// len returns how many jobs are queued.
func (q *jobQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.jobs)
}
