package udpwire

// Connection internals read by the external loopback tests.

// PeerTolerance reports the loss tolerance the peer declared in the
// handshake.
func PeerTolerance(c *Conn) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.PeerTolerance()
}

// CarryoverMarked returns the marked messages a resumed successor of c
// would re-send.
func CarryoverMarked(c *Conn) [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.CarryoverMarked()
}
