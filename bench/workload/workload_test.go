package workload

import (
	"testing"
	"time"
)

func TestDueIsAFixedGridWithConnectionsInterleaved(t *testing.T) {
	start := time.Unix(50, 0)
	period := time.Second / 150
	for k := uint32(0); k < 1000; k += 37 {
		d0 := Due(start, 150, 0, 2, k).Sub(start)
		if want := time.Duration(float64(time.Second) / 150 * float64(k)); d0 != want {
			t.Fatalf("message %d due at %v, want %v", k, d0, want)
		}
		d1 := Due(start, 150, 1, 2, k).Sub(start)
		if off := d1 - d0; off < period/2-time.Microsecond || off > period/2+time.Microsecond {
			t.Fatalf("connection 1 is offset %v from connection 0, want half a period (%v)", off, period/2)
		}
	}
	// Lateness is measured against the grid, not against the previous send:
	// a sender that ran 3 ms late on message 10 is still due on the grid for 11.
	late := Due(start, 150, 0, 2, 10).Add(3 * time.Millisecond)
	want := period - 3*time.Millisecond
	if d := Due(start, 150, 0, 2, 11).Sub(late); d < want-time.Microsecond || d > want+time.Microsecond {
		t.Fatalf("message 11 is due %v after a late message 10, want %v", d, want)
	}
}

// stream builds the messages 0..n-1 of connection conn as a sender would.
func stream(p *Pattern, conn uint8, n int, size int, unmarked float64) (msgs [][]byte, marked []bool) {
	for id := 0; id < n; id++ {
		b := make([]byte, size)
		m := p.Fill(b, int64(1000+id), conn, uint32(id), unmarked)
		msgs, marked = append(msgs, b), append(marked, m)
	}
	return msgs, marked
}

func TestCheckerAcceptsTheGeneratedStream(t *testing.T) {
	p := NewPattern(7, 1200)
	msgs, marked := stream(p, 1, 500, 1200, 0.5)
	c := NewChecker(NewPattern(7, 1200), 0.5) // the sink builds its own pattern from the seed
	nMarked := 0
	for i, b := range msgs {
		st, ok := c.Check(b, marked[i], false)
		if !ok || st.ID != uint32(i) || st.Conn != 1 || st.At != int64(1000+i) {
			t.Fatalf("message %d rejected or misread: %+v ok=%v", i, st, ok)
		}
		if marked[i] {
			nMarked++
		}
	}
	if c.Tally.Violations() != 0 || c.Tally.Delivered() != 500 || c.Next() != 500 {
		t.Fatalf("clean stream: %+v next=%d", c.Tally, c.Next())
	}
	if c.Tally.Marked != uint64(nMarked) || c.Tally.Bytes != 500*1200 {
		t.Fatalf("tally %+v, want %d marked and %d bytes", c.Tally, nMarked, 500*1200)
	}
	if nMarked < 200 || nMarked > 300 {
		t.Fatalf("%d of 500 marked at an unmarked share of 0.5", nMarked)
	}
	if other, _ := stream(NewPattern(8, 1200), 1, 1, 1200, 0.5); string(other[0][StampLen:]) == string(msgs[0][StampLen:]) {
		t.Fatal("two seeds gave the same body")
	}
}

func TestCheckerCountsEachViolationOnce(t *testing.T) {
	p := NewPattern(3, 256)
	msgs, marked := stream(p, 0, 40, 256, 0.5)
	firstMarked, firstUnmarked := -1, -1
	for i := 5; i < 40; i++ {
		if marked[i] && firstMarked < 0 {
			firstMarked = i
		}
		if !marked[i] && firstUnmarked < 0 {
			firstUnmarked = i
		}
	}

	t.Run("missing marked, skipped unmarked", func(t *testing.T) {
		c := NewChecker(p, 0.5)
		wantMissing, wantSkipped := uint64(0), uint64(0)
		for i, b := range msgs {
			if i == firstMarked || i == firstUnmarked {
				if marked[i] {
					wantMissing++
				} else {
					wantSkipped++
				}
				continue
			}
			c.Check(b, marked[i], false)
		}
		if c.Tally.MissingMarked != wantMissing || c.Tally.Skipped != wantSkipped || c.Tally.Violations() != wantMissing {
			t.Fatalf("%+v, want %d missing marked and %d skipped", c.Tally, wantMissing, wantSkipped)
		}
	})
	t.Run("duplicate and reorder", func(t *testing.T) {
		c := NewChecker(p, 0.5)
		for i := 0; i < 10; i++ {
			c.Check(msgs[i], marked[i], false)
		}
		c.Check(msgs[9], marked[9], false) // delivered twice
		c.Check(msgs[4], marked[4], false) // late
		if c.Tally.OutOfOrder != 2 || c.Tally.Delivered() != 10 {
			t.Fatalf("%+v, want 2 out of order and 10 delivered", c.Tally)
		}
	})
	t.Run("corruption", func(t *testing.T) {
		c := NewChecker(p, 0.5)
		bad := append([]byte(nil), msgs[0]...)
		bad[100] ^= 1
		c.Check(bad, marked[0], false)           // body differs
		c.Check(msgs[1], !marked[1], false)      // delivered with the wrong marking
		c.Check(msgs[2][:200], marked[2], false) // truncated: length field disagrees
		if c.Tally.Corrupt != 3 || c.Tally.Delivered() != 0 {
			t.Fatalf("%+v, want 3 corrupt", c.Tally)
		}
	})
	t.Run("partial only on unmarked", func(t *testing.T) {
		c := NewChecker(p, 0.5)
		for i := 0; i <= firstMarked || i <= firstUnmarked; i++ {
			holes := append([]byte(nil), msgs[i]...)
			partial := i == firstMarked || i == firstUnmarked
			if partial {
				clear(holes[StampLen+10 : StampLen+50])
			}
			c.Check(holes, marked[i], partial)
		}
		if c.Tally.BadPartial != 1 || c.Tally.Corrupt != 0 {
			t.Fatalf("%+v, want the marked partial counted once and the unmarked one accepted", c.Tally)
		}
	})
	t.Run("tail the stream ended without", func(t *testing.T) {
		c := NewChecker(p, 0.5)
		for i := 0; i < 30; i++ {
			c.Check(msgs[i], marked[i], false)
		}
		c.Finish(0, 40)
		var wantMissing uint64
		for i := 30; i < 40; i++ {
			if marked[i] {
				wantMissing++
			}
		}
		if c.Tally.MissingMarked != wantMissing || c.Tally.Skipped != 10-wantMissing || c.Next() != 40 {
			t.Fatalf("%+v next=%d, want %d missing marked of a 10-message tail", c.Tally, c.Next(), wantMissing)
		}
	})
}

func TestSpecsAreWithinTheLoadSizingRules(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Specs() {
		if seen[s.Name] {
			t.Errorf("workload %q listed twice", s.Name)
		}
		seen[s.Name] = true
		if s.Conns < 1 || s.Conns > 2 {
			t.Errorf("%s: %d connections; the generator runs at most one per CPU of a 2-CPU host", s.Name, s.Conns)
		}
		if s.MsgBytes < StampLen || s.LatencyStride < 1 || s.Why == "" || len(s.Why) > 200 {
			t.Errorf("%s: malformed spec %+v", s.Name, s)
		}
		if got, ok := ByName(s.Name); !ok || got.Name != s.Name {
			t.Errorf("ByName(%q) failed", s.Name)
		}
	}
	if len(seen) != 4 {
		t.Errorf("%d workloads, want 4", len(seen))
	}
}
