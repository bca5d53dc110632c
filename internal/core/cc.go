package core

import "time"

// congestion implements IQ-RUDP's window-based controller. It is TCP-like —
// slow start then additive increase — but its multiplicative decrease
// resembles the Loss-Delay Adjustment algorithm: the reduction is
// proportional to the measured loss ratio, w ← w·max(0.5, 1−eratio), instead
// of an unconditional halving. That produces the smoother window evolution
// (and better delay/jitter than TCP) that Table 1 of the paper reports.
// A TCP-style halving decrease is available as an ablation.
type congestion struct {
	cwnd     float64
	ssthresh float64
	maxCwnd  float64
	initial  float64
	halving  bool // ablation: TCP-style decrease
	frozen   bool // DisableCC: window never changes

	lastDecrease time.Duration
	decreases    uint64
}

func newCongestion(cfg *Config) congestion {
	c := congestion{
		cwnd:     cfg.InitialCwnd,
		ssthresh: cfg.MaxCwnd / 2,
		maxCwnd:  cfg.MaxCwnd,
		initial:  cfg.InitialCwnd,
		halving:  cfg.HalvingDecrease,
		frozen:   cfg.DisableCC,
	}
	if cfg.DisableCC {
		c.cwnd = cfg.FixedWindow
	}
	return c
}

// Window returns the current congestion window in packets (≥1).
func (c *congestion) Window() float64 {
	if c.cwnd < 1 {
		return 1
	}
	return c.cwnd
}

// OnAck grows the window for n newly acknowledged packets. limited reports
// whether the flow was window-limited when the ack arrived; growth is gated
// on it (congestion window validation, RFC 2861) so application-limited
// periods do not bank unused window that would later burst into the queue.
func (c *congestion) OnAck(n int, limited bool) {
	if c.frozen || n <= 0 || !limited {
		return
	}
	for i := 0; i < n; i++ {
		if c.cwnd < c.ssthresh {
			c.cwnd++ // slow start: one packet per acked packet
		} else {
			c.cwnd += 1 / c.cwnd // congestion avoidance: ~one per RTT
		}
	}
	if c.cwnd > c.maxCwnd {
		c.cwnd = c.maxCwnd
	}
}

// OnLoss applies a multiplicative decrease for a loss event detected at time
// now with smoothed loss ratio eratio. Decreases are limited to one per
// smoothed RTT so a burst of losses within a window counts once.
func (c *congestion) OnLoss(now time.Duration, srtt time.Duration, eratio float64) {
	if c.frozen {
		return
	}
	guard := srtt
	if guard <= 0 {
		guard = 100 * time.Millisecond
	}
	if c.decreases > 0 && now-c.lastDecrease < guard {
		return
	}
	// Loss-proportional decrease, bounded: mild congestion backs off by a
	// quarter (smoother than TCP's halving — the source of IQ-RUDP's
	// delay/jitter advantage), severe congestion floors at TCP-equivalent
	// halving so the flow stays fair and clears the queue it built.
	factor := 1 - eratio
	if factor > 0.75 {
		factor = 0.75
	}
	if factor < 0.5 {
		factor = 0.5
	}
	if c.halving {
		factor = 0.5
	}
	c.cwnd *= factor
	if c.cwnd < 1 {
		c.cwnd = 1
	}
	c.ssthresh = c.cwnd
	c.lastDecrease = now
	c.decreases++
}

// OnTimeout collapses the window after a retransmission timeout.
func (c *congestion) OnTimeout(now time.Duration) {
	if c.frozen {
		return
	}
	c.ssthresh = c.cwnd / 2
	if c.ssthresh < 2 {
		c.ssthresh = 2
	}
	c.cwnd = c.initial
	c.lastDecrease = now
	c.decreases++
}

// Rescale multiplies the window by factor — the coordination hook (Cases 2
// and 3): after an application resolution adaptation the transport grows its
// packet window to keep the byte rate at the connection's fair share.
// The result is clamped to [1, maxCwnd]; ssthresh follows so the controller
// does not immediately re-enter slow start.
func (c *congestion) Rescale(factor float64) {
	if c.frozen || factor <= 0 {
		return
	}
	c.cwnd *= factor
	if c.cwnd < 1 {
		c.cwnd = 1
	}
	if c.cwnd > c.maxCwnd {
		c.cwnd = c.maxCwnd
	}
	if c.cwnd > c.ssthresh {
		c.ssthresh = c.cwnd
	}
}
