package workload

import "bytes"

// Tally is what a receiver saw on one or more connections.
type Tally struct {
	Marked   uint64 // marked messages delivered intact and in order
	Unmarked uint64 // unmarked messages delivered intact and in order
	Bytes    uint64 // payload bytes of the above
	Skipped  uint64 // unmarked ids that never arrived (allowed, within tolerance)

	// Violations: each is one failed operation.
	MissingMarked uint64 // marked ids skipped over
	OutOfOrder    uint64 // an id at or below one already seen (reorder or duplicate)
	Corrupt       uint64 // bad stamp, wrong marking, or body differs from the pattern
	BadPartial    uint64 // Partial set on a marked message
}

// Add folds o into t.
func (t *Tally) Add(o Tally) {
	t.Marked += o.Marked
	t.Unmarked += o.Unmarked
	t.Bytes += o.Bytes
	t.Skipped += o.Skipped
	t.MissingMarked += o.MissingMarked
	t.OutOfOrder += o.OutOfOrder
	t.Corrupt += o.Corrupt
	t.BadPartial += o.BadPartial
}

// Delivered is the number of messages that passed every check.
func (t Tally) Delivered() uint64 { return t.Marked + t.Unmarked }

// Violations is the number of failed operations.
func (t Tally) Violations() uint64 {
	return t.MissingMarked + t.OutOfOrder + t.Corrupt + t.BadPartial
}

// Checker verifies one connection's delivered stream against the seed:
// ids strictly increasing, every marked id present exactly once, the
// marking and body what the generator must have sent, Partial only on
// unmarked messages. It is not safe for concurrent use.
type Checker struct {
	p        *Pattern
	unmarked float64
	next     uint32 // lowest id not yet accounted for
	Tally    Tally
}

// NewChecker checks a connection whose traffic has the given unmarked share.
func NewChecker(p *Pattern, unmarked float64) *Checker {
	return &Checker{p: p, unmarked: unmarked}
}

// Next returns the lowest id not yet accounted for: after a clean stream of
// n messages it is n.
func (c *Checker) Next() uint32 { return c.next }

// Check takes one delivered message and reports its stamp and whether it
// passed. A failed message is counted in Tally and otherwise ignored.
func (c *Checker) Check(data []byte, marked, partial bool) (Stamp, bool) {
	st, ok := ParseStamp(data)
	if !ok || st.Marked != marked || st.Marked != c.p.Marked(st.Conn, st.ID, c.unmarked) {
		c.Tally.Corrupt++
		return st, false
	}
	if st.ID < c.next {
		c.Tally.OutOfOrder++
		return st, false
	}
	c.skipTo(st.Conn, st.ID)
	c.next = st.ID + 1
	if partial && marked {
		c.Tally.BadPartial++
		return st, false
	}
	// A partial (unmarked) message has holes where fragments were skipped,
	// so only whole messages are compared with the pattern.
	if !partial && !bytes.Equal(data[StampLen:], c.p.body(st.Conn, st.ID, len(data)-StampLen)) {
		c.Tally.Corrupt++
		return st, false
	}
	if marked {
		c.Tally.Marked++
	} else {
		c.Tally.Unmarked++
	}
	c.Tally.Bytes += uint64(len(data))
	return st, true
}

// skipTo accounts for the ids in [next, id) that never arrived.
func (c *Checker) skipTo(conn uint8, id uint32) {
	for k := c.next; k < id; k++ {
		if c.p.Marked(conn, k, c.unmarked) {
			c.Tally.MissingMarked++
		} else {
			c.Tally.Skipped++
		}
	}
}

// Finish accounts for ids the sender reports having sent (0..sent-1) that
// the stream ended without. conn is the generator connection index.
func (c *Checker) Finish(conn uint8, sent uint32) {
	if sent > c.next {
		c.skipTo(conn, sent)
		c.next = sent
	}
}
