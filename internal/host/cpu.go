package host

import "repro/internal/sim"

// CPUAccount accumulates host-CPU time charged to a process by the
// messaging library. GM's claim to fame is tiny host overhead (0.30 µs per
// send, 0.75 µs per receive on the paper's hosts); FTGM adds the
// token-housekeeping costs on top. Table 2's "Host util." rows are computed
// from these counters.
type CPUAccount struct {
	busy      sim.Duration
	sends     uint64
	recvs     uint64
	sendBusy  sim.Duration
	recvBusy  sim.Duration
	otherBusy sim.Duration
}

// ChargeSend records host-CPU time spent posting a send.
func (c *CPUAccount) ChargeSend(d sim.Duration) {
	c.busy += d
	c.sendBusy += d
	c.sends++
}

// ChargeRecv records host-CPU time spent handling a receive.
func (c *CPUAccount) ChargeRecv(d sim.Duration) {
	c.busy += d
	c.recvBusy += d
	c.recvs++
}

// Charge records other library host-CPU time (polling, recovery handler).
func (c *CPUAccount) Charge(d sim.Duration) {
	c.busy += d
	c.otherBusy += d
}

// Busy reports total charged time.
func (c *CPUAccount) Busy() sim.Duration { return c.busy }

// PerSend reports the mean host-CPU cost of a send in virtual time.
func (c *CPUAccount) PerSend() sim.Duration {
	if c.sends == 0 {
		return 0
	}
	return c.sendBusy / sim.Duration(c.sends)
}

// PerRecv reports the mean host-CPU cost of a receive in virtual time.
func (c *CPUAccount) PerRecv() sim.Duration {
	if c.recvs == 0 {
		return 0
	}
	return c.recvBusy / sim.Duration(c.recvs)
}

// Counts reports how many sends and receives were charged.
func (c *CPUAccount) Counts() (sends, recvs uint64) { return c.sends, c.recvs }

// Reset zeroes the account (between benchmark phases).
func (c *CPUAccount) Reset() { *c = CPUAccount{} }
