// Package bufown seeds pooled-buffer ownership violations: no use
// after Put, a release on every return path, no retained aliases, and
// no mutation of a staged train block before Flush.
package bufown

import "sync"

type buf struct{ b []byte }

var pool = sync.Pool{New: func() any { return new(buf) }}

// GetBuf borrows a buffer from the package pool.
//
//switchml:acquire
func GetBuf() *buf { return pool.Get().(*buf) }

// PutBuf returns a buffer to the pool.
//
//switchml:release
func PutBuf(b *buf) { pool.Put(b) }

// UseAfterPut touches the buffer after recycling it: the next
// borrower may already own the storage.
func UseAfterPut() int {
	b := GetBuf()
	b.b = append(b.b[:0], 1)
	PutBuf(b)
	return len(b.b) // want "b used after it was returned to the pool"
}

// Inline borrows straight off the sync.Pool; the rules are the same
// as for the annotated helpers.
func Inline() {
	b := pool.Get().(*buf)
	pool.Put(b)
	b.b = nil // want "b used after it was returned to the pool"
}

// LeakyReturn forgets the buffer on its early exit: the pool never
// sees it again.
func LeakyReturn(fail bool) int {
	b := GetBuf()
	if fail {
		return -1 // want "return leaks pooled b: no Put/release on this path"
	}
	n := len(b.b)
	PutBuf(b)
	return n
}

type cache struct{ last *buf }

// Retain stores the pooled buffer in a field and still recycles it —
// the retained alias outlives the recycle.
func (c *cache) Retain() {
	b := GetBuf()
	c.last = b // want "pooled b escapes into field last while this function also puts it back"
	PutBuf(b)
}

var sticky *buf

// Publish parks the pooled buffer in a package variable before
// recycling it.
func Publish() {
	b := GetBuf()
	sticky = b // want "pooled b escapes into package variable sticky while this function also puts it back"
	PutBuf(b)
}

// DeferPut is the canonical clean shape: the deferred release covers
// every return path and runs after the last use.
func DeferPut() int {
	b := GetBuf()
	defer PutBuf(b)
	return len(b.b)
}

// Handoff transfers ownership to the caller — it never Puts, so
// storing and returning the buffer is the point, not a leak.
func Handoff() *buf {
	b := GetBuf()
	b.b = b.b[:0]
	return b
}

// Branches releases in both arms; a branch-local Put must not poison
// the other path.
func Branches(fail bool) {
	b := GetBuf()
	if fail {
		PutBuf(b)
		return
	}
	PutBuf(b)
}

type conn struct{ staged [][]byte }

// AppendTrain stages a block for the next Flush, keeping a reference
// into the caller's storage — the netio GSO contract.
func (c *conn) AppendTrain(block []byte, n int) { c.staged = append(c.staged, block) }

// Flush sends and forgets the staged blocks.
func (c *conn) Flush() { c.staged = c.staged[:0] }

// EarlyReset recycles the staged block before Flush sends it.
func EarlyReset(c *conn, block []byte) {
	c.AppendTrain(block, 1)
	block = block[:0] // want "block reassigned between AppendTrain and Flush; the staged train still references it"
	c.Flush()
	_ = block
}

// ResetAfterFlush reuses the block only once the send completed:
// clean.
func ResetAfterFlush(c *conn, block []byte) {
	c.AppendTrain(block, 1)
	c.Flush()
	block = block[:0]
	_ = block
}

// EarlyResetRun stages only a run of the block — a sub-slice still
// sends from the block's storage, so the rule follows it.
func EarlyResetRun(c *conn, block []byte) {
	c.AppendTrain(block[2:6], 1)
	block = block[:0] // want "block reassigned between AppendTrain and Flush; the staged train still references it"
	c.Flush()
	_ = block
}

// RunsThenFlush stages the block as two runs around a gap and reuses
// it after the flush: clean.
func RunsThenFlush(c *conn, block []byte) {
	c.AppendTrain(block[:2], 1)
	c.AppendTrain(block[3:], 1)
	c.Flush()
	block = block[:0]
	_ = block
}
