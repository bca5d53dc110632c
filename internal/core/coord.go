package core

import (
	"math"

	"github.com/cercs/iqrudp/internal/attr"
	"github.com/cercs/iqrudp/internal/trace"
)

// coordinator is the paper's contribution: it receives descriptions of
// application-level adaptations (as callback return values, explicit
// reports, or ADAPT_* attributes on send calls) and re-adapts the transport:
//
//   - Case 1, conflicting interests: a reliability adaptation switches the
//     sender into discard-unmarked mode so tagged traffic stops queueing
//     behind droppable traffic.
//   - Case 2, over-reaction: a resolution adaptation of degree rate_chg
//     rescales the packet window by 1/(1−rate_chg) (while frames are below
//     the MSS) so the transport does not also shrink the byte rate the
//     application already shrank.
//   - Case 3, limited granularity: ADAPT_WHEN announces a delayed
//     adaptation; the transport keeps adapting alone and applies the window
//     change at the send call that enacts it. ADAPT_COND additionally
//     corrects for the network change during the delay:
//     factor = 1/(1−rate_chg) · (1−eratio_now)/(1−eratio_then).
//
// With Config.Coordinate false the coordinator ignores everything — that is
// the paper's plain-RUDP comparison point.
type coordinator struct {
	m *Machine

	discard bool // Case 1 active: discard unmarked messages before sending

	// Pending delayed adaptation (Case 3): announced via ADAPT_WHEN, enacted
	// by a later send call carrying ADAPT_PKTSIZE (and optionally
	// ADAPT_COND).
	pendingKind   AdaptKind
	pendingFrames int
	framesSeen    uint64
}

// discardUnmarked reports whether Case-1 discarding is active.
func (c *coordinator) discardUnmarked() bool { return c.discard }

// onFrame counts application messages (frames) for delayed-adaptation
// bookkeeping.
func (c *coordinator) onFrame() {
	c.framesSeen++
	if c.pendingFrames > 0 {
		c.pendingFrames--
	}
}

// onReport processes an adaptation description returned by a threshold
// callback (or injected via Machine.Report).
func (c *coordinator) onReport(rep *AdaptationReport, info CallbackInfo) {
	if rep == nil || !c.m.cfg.Coordinate {
		return
	}
	if rep.WhenFrames > 0 {
		// Case 3-1: the application will adapt later; note it and keep
		// adapting at the transport level until the enacting send call.
		c.pendingKind = rep.Kind
		c.pendingFrames = rep.WhenFrames
		c.traceDecision(3, rep, 0, trace.ReasonAnnounced)
		return
	}
	if rep.WhenFrames < 0 || rep.Kind == AdaptNone {
		return
	}
	c.enact(rep, info.ErrorRatio)
}

// onSendAttrs interprets ADAPT_* attributes on a send call — the
// CMwritev_attr coordination path. size is the message size in bytes, used
// for the below-MSS window-growth condition.
func (c *coordinator) onSendAttrs(attrs *attr.List, size int) {
	if attrs == nil || !c.m.cfg.Coordinate {
		return
	}
	if when, err := attrs.Int(attr.AdaptWhen); err == nil {
		c.pendingFrames = int(when)
		c.pendingKind = AdaptResolution
	}
	if deg, err := attrs.Float(attr.AdaptMark); err == nil {
		c.enact(&AdaptationReport{Kind: AdaptReliability, Degree: deg}, math.NaN())
	}
	if deg, err := attrs.Float(attr.AdaptPktSize); err == nil {
		rep := &AdaptationReport{
			Kind:           AdaptResolution,
			Degree:         deg,
			FrameSize:      size,
			CondErrorRatio: attrs.FloatOr(attr.AdaptCond, math.NaN()),
		}
		c.enact(rep, rep.CondErrorRatio)
		c.pendingKind = AdaptNone
		c.pendingFrames = 0
	}
	if _, err := attrs.Float(attr.AdaptFreq); err == nil {
		// Frequency adaptation: the reduced frame frequency already has the
		// effect a window reduction would have; no transport change (§3.4).
	}
}

// enact applies one adaptation to the transport. condEratio is the error
// ratio the application based the adaptation on (NaN when unknown).
func (c *coordinator) enact(rep *AdaptationReport, condEratio float64) {
	m := c.m
	switch rep.Kind {
	case AdaptReliability:
		// Case 1: stop sending what the application no longer needs
		// delivered. Cancelled when the unmark probability returns to zero.
		c.discard = rep.Degree > 0
		if c.discard {
			c.traceDecision(1, rep, 0, trace.ReasonDiscardOn)
		} else {
			c.traceDecision(1, rep, 0, trace.ReasonDiscardOff)
		}
	case AdaptResolution:
		// A resolution adaptation is Case 2 (over-reaction) when enacted
		// immediately, Case 3 (limited granularity) when it enacts a
		// delayed adaptation announced via ADAPT_WHEN.
		caseNo := 2
		if c.pendingKind != AdaptNone {
			caseNo = 3
		}
		if rep.Degree >= 1 || rep.Degree <= -1 {
			c.traceDecision(caseNo, rep, 0, trace.ReasonBadDegree)
			return // nonsensical degree
		}
		if rep.FrameSize > 0 && rep.FrameSize >= m.cfg.MSS {
			// Frames still span full segments: the packet window carries the
			// same byte rate, no compensation needed.
			c.traceDecision(caseNo, rep, 0, trace.ReasonFrameAboveMSS)
			return
		}
		factor := 1 / (1 - rep.Degree)
		if !math.IsNaN(condEratio) && condEratio < 1 {
			// Case 3-2 (ADAPT_COND): correct for how the network changed
			// while the adaptation was pending. If congestion worsened
			// (eratio_now > eratio_then) the growth is damped; if it eased,
			// amplified.
			now := m.meas.smoothed()
			if now < 1 {
				factor *= (1 - now) / (1 - condEratio)
			}
		}
		if factor < 0.25 {
			factor = 0.25
		}
		if factor > 4 {
			factor = 4
		}
		c.traceDecision(caseNo, rep, factor, trace.ReasonRescale)
		m.ccRescale(factor)
		m.metrics.WindowRescales++
		m.trySend() // the larger window may admit queued packets immediately
	case AdaptFrequency, AdaptNone:
		// No transport change.
	}
}

// traceDecision records one coordination decision (Cases 1–3) with the
// triggering report's fields; factor is the applied window rescale (zero
// when the decision was not to rescale).
func (c *coordinator) traceDecision(caseNo int, rep *AdaptationReport, factor float64, reason string) {
	m := c.m
	if m.tr == nil {
		return
	}
	m.tr.Trace(trace.Event{
		Time:       m.now,
		Type:       trace.CoordinationDecision,
		ConnID:     m.connID,
		Case:       caseNo,
		Kind:       rep.Kind.String(),
		Degree:     rep.Degree,
		Factor:     factor,
		WhenFrames: rep.WhenFrames,
		ErrorRatio: m.meas.smoothed(),
		Cwnd:       m.cc.Window(),
		Reason:     reason,
	})
}

// Report lets the application describe an adaptation outside the callback
// return path (e.g. a self-clocked application adapting on its own signal).
func (m *Machine) Report(rep *AdaptationReport) {
	if rep == nil {
		return
	}
	defer m.exit(m.enter())
	info := CallbackInfo{
		Now:        m.now,
		ErrorRatio: m.meas.smoothed(),
		RawRatio:   m.meas.lastRaw(),
		RateBps:    m.meas.rate(),
		SRTT:       m.rtt.SRTT(),
		Cwnd:       m.cc.Window(),
	}
	m.coo.onReport(rep, info)
}

// PendingAdaptation reports whether a delayed application adaptation has
// been announced but not yet enacted, and how many frames remain.
func (m *Machine) PendingAdaptation() (AdaptKind, int, bool) {
	if m.coo.pendingKind == AdaptNone && m.coo.pendingFrames == 0 {
		return AdaptNone, 0, false
	}
	return m.coo.pendingKind, m.coo.pendingFrames, true
}
