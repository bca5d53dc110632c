package serve

import (
	"math/rand/v2"
	"sort"
	"time"

	"github.com/cercs/iqrudp/internal/core"
	"github.com/cercs/iqrudp/internal/hist"
	"github.com/cercs/iqrudp/internal/udpwire"
)

// This file is the engine's observability layer: per-connection histogram
// and flight-recorder provisioning, the closed-connection archive (so a
// connection's samples outlive it in the fleet-wide distributions), the
// bounded flight-record retention, and the /debug/iqrudp introspection
// document.

// noteClosed archives a detaching connection's observability state: its
// histogram samples merge into the engine-wide archive and, if it died
// abnormally, its flight record joins the bounded retention ring.
func (srv *Server) noteClosed(c *udpwire.Conn) {
	hs := c.Hists()
	rec := c.FlightRecord()
	if hs == nil && rec == nil {
		return
	}
	srv.obsMu.Lock()
	defer srv.obsMu.Unlock()
	if hs != nil {
		srv.archive = hist.MergeByName(append(srv.archive, hs.Snapshots()...))
	}
	if rec != nil {
		srv.flightTotal++
		srv.flights = append(srv.flights, rec)
		if max := srv.flightCap; len(srv.flights) > max {
			// Drop oldest; shift in place, the slice stays small.
			n := copy(srv.flights, srv.flights[len(srv.flights)-max:])
			for i := n; i < len(srv.flights); i++ {
				srv.flights[i] = nil
			}
			srv.flights = srv.flights[:n]
		}
	}
}

// FlightRecords returns the retained flight records, oldest first, plus the
// total count of abnormal closes that produced one (including records the
// bounded retention has since dropped).
func (srv *Server) FlightRecords() ([]*core.FlightRecord, uint64) {
	srv.obsMu.Lock()
	defer srv.obsMu.Unlock()
	out := make([]*core.FlightRecord, len(srv.flights))
	copy(out, srv.flights)
	return out, srv.flightTotal
}

// liveConns snapshots every connection currently in the demux tables.
func (srv *Server) liveConns() []*udpwire.Conn {
	var out []*udpwire.Conn
	for _, sh := range srv.shards {
		sh.mu.RLock()
		for _, e := range sh.byID {
			out = append(out, e.c)
		}
		sh.mu.RUnlock()
	}
	return out
}

// HistSnapshots merges every histogram source the engine owns — live
// connections, the closed-connection archive, and the per-shard rx-batch /
// dispatch histograms — into one name-keyed snapshot set. Feed it to
// metricsexp.Exporter.AddHistSource.
func (srv *Server) HistSnapshots() []hist.Snapshot {
	var snaps []hist.Snapshot
	for _, c := range srv.liveConns() {
		if hs := c.Hists(); hs != nil {
			snaps = append(snaps, hs.Snapshots()...)
		}
	}
	for _, sh := range srv.shards {
		if sh.rxBatchH != nil {
			snaps = append(snaps, sh.rxBatchH.Snapshot(), sh.dispatchH.Snapshot())
		}
		if sh.wheelLateH != nil {
			snaps = append(snaps, sh.wheelLateH.Snapshot())
		}
	}
	srv.obsMu.Lock()
	snaps = append(snaps, srv.archive...)
	srv.obsMu.Unlock()
	return hist.MergeByName(snaps)
}

// introConnCap bounds the live-connection list in the introspection
// document; a server at the ROADMAP's connection scale must not serialise
// its whole table per poll.
const introConnCap = 256

// IntroConn describes one live connection in the introspection document.
type IntroConn struct {
	ConnID      uint32         `json:"conn_id"`
	Peer        string         `json:"peer,omitempty"`
	State       string         `json:"state"`
	CloseReason string         `json:"close_reason,omitempty"`
	SRTTMs      float64        `json:"srtt_ms"`
	Cwnd        float64        `json:"cwnd"`
	ErrorRatio  float64        `json:"error_ratio"`
	InFlight    int            `json:"in_flight"`
	Hists       []hist.Summary `json:"hists,omitempty"`
}

// IntroShard describes one shard: its I/O counters plus batch-size and
// dispatch-latency distributions.
type IntroShard struct {
	Shard     int           `json:"shard"`
	Stats     ShardStats    `json:"stats"`
	RxBatch   *hist.Summary `json:"rx_batch,omitempty"`
	Dispatch  *hist.Summary `json:"dispatch,omitempty"`
	WheelLate *hist.Summary `json:"wheel_late,omitempty"`
}

// Introspection is the /debug/iqrudp document: engine stats, per-shard
// distributions, a capped live-connection listing and the retained flight
// records. Plain data, rendered as JSON by metricsexp.
type Introspection struct {
	Stats         Stats                `json:"stats"`
	Shards        []IntroShard         `json:"shards"`
	Conns         []IntroConn          `json:"conns"`
	ConnsTotal    int                  `json:"conns_total"`
	ConnsListed   int                  `json:"conns_listed"`
	FlightTotal   uint64               `json:"flight_total"`
	FlightRecords []*core.FlightRecord `json:"flight_records,omitempty"`
}

// Introspect assembles the live introspection document. Pass it (as a
// closure) to metricsexp.Exporter.SetIntrospection.
func (srv *Server) Introspect() Introspection {
	doc := Introspection{Stats: srv.Stats()}
	for i, sh := range srv.shards {
		is := IntroShard{Shard: i, Stats: doc.Stats.Shards[i]}
		if sh.rxBatchH != nil {
			if s := sh.rxBatchH.Snapshot(); s.Count > 0 {
				sum := s.Summary()
				is.RxBatch = &sum
			}
			if s := sh.dispatchH.Snapshot(); s.Count > 0 {
				sum := s.Summary()
				is.Dispatch = &sum
			}
		}
		if sh.wheelLateH != nil {
			if s := sh.wheelLateH.Snapshot(); s.Count > 0 {
				sum := s.Summary()
				is.WheelLate = &sum
			}
		}
		doc.Shards = append(doc.Shards, is)
	}
	conns := srv.liveConns()
	sort.Slice(conns, func(i, j int) bool { return conns[i].ID() < conns[j].ID() })
	doc.ConnsTotal = len(conns)
	if len(conns) > introConnCap {
		conns = conns[:introConnCap]
	}
	doc.ConnsListed = len(conns)
	doc.Conns = make([]IntroConn, 0, len(conns))
	for _, c := range conns {
		mt := c.Metrics()
		ic := IntroConn{
			ConnID:      c.ID(),
			State:       c.State(),
			CloseReason: c.CloseReason(),
			SRTTMs:      float64(mt.SRTT) / float64(time.Millisecond),
			Cwnd:        mt.Cwnd,
			ErrorRatio:  mt.ErrorRatio,
			InFlight:    mt.InFlight,
		}
		if ra := c.RemoteAddr(); ra != nil {
			ic.Peer = ra.String()
		}
		if hs := c.Hists(); hs != nil {
			ic.Hists = hs.Summaries()
		}
		doc.Conns = append(doc.Conns, ic)
	}
	doc.FlightRecords, doc.FlightTotal = srv.FlightRecords()
	return doc
}

// connConfig derives the per-connection transport config: the shared
// engine config plus this connection's own histogram set and flight
// recorder, plus the hardening hooks — a random SYNACK ISN (so a blind
// spoofer cannot forge the handshake-completing ack), the shared memory
// ledger, and the governor's brownout level (sampled live by the machine;
// at level ≥2 the initial advertised window is additionally clamped so
// brand-new connections start small).
func (srv *Server) connConfig() core.Config {
	cfg := srv.cfg
	if fe := srv.opt.FlightEvents; fe > 0 {
		cfg.FlightEvents = fe
		cfg.Hists = core.NewHists()
	}
	for cfg.InitialSeq == 0 {
		cfg.InitialSeq = rand.Uint32()
	}
	if srv.gov != nil {
		cfg.Mem = srv.ledger
		cfg.Pressure = srv.gov.Level
	}
	return cfg
}
