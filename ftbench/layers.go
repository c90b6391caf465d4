package main

import (
	"repro/gm"
)

// Counter indices of a layer snapshot. Every counter is cumulative in the
// program, so the steady phase reads as the difference of two snapshots.
const (
	cEvents = iota // sim: events executed, all domains

	cMsgsSent // mcp
	cFrags
	cAcks
	cRetx
	cDupDrops
	cLTimer
	cNoBuf

	cExecBusy // lanai: ns
	cDMABytes
	cRxDrops

	cPCIBusy // host: ns
	cPCIBytes

	cLinkPkts // fabric: packets the interfaces injected
	cLinkBusy // ns, node cables in both directions
	cLinkDrops
	cSwitchFwd
	cSwitchDrops

	cRecoveries // core
	cFalseAlarms
	cReloadRetries
	cFatalIRQs

	cProbes // gossip
	cSuspicions
	cDeadDeclared

	nCounters
)

type counters [nCounters]uint64

// snapshot sums the layer counters the program exposes through its public
// Stats accessors. Call it between Run calls only.
func snapshot(cl *gm.Cluster, nodes []*gm.Node, sws []*gm.Switch) counters {
	var c counters
	c[cEvents] = cl.Engine().ExecutedAll()
	for _, n := range nodes {
		m := n.MCPStats()
		c[cMsgsSent] += m.MsgsSent
		c[cFrags] += m.FragmentsSent
		c[cAcks] += m.AcksSent
		c[cRetx] += m.Retransmits
		c[cDupDrops] += m.DupDropped
		c[cLTimer] += m.LTimerRuns
		c[cNoBuf] += m.NoBufferDrops
		ch := n.ChipStats()
		c[cExecBusy] += uint64(ch.ExecBusy)
		c[cDMABytes] += ch.HostDMABytes
		c[cRxDrops] += ch.PacketsDropped
		p := n.PCI().Stats()
		c[cPCIBusy] += uint64(p.Busy)
		c[cPCIBytes] += p.Bytes
		if l := n.Link(); l != nil {
			c[cLinkPkts] += l.Stats(0).Packets
			for end := 0; end < 2; end++ {
				s := l.Stats(end)
				c[cLinkBusy] += uint64(s.Busy)
				c[cLinkDrops] += s.Dropped
			}
		}
		if f := n.FTD(); f != nil {
			s := f.Stats()
			c[cRecoveries] += s.Recoveries
			c[cFalseAlarms] += s.FalseAlarms
			c[cReloadRetries] += s.ReloadRetries
		}
		c[cFatalIRQs] += n.Driver().Stats().FatalInterrupts
	}
	for _, s := range sws {
		st := s.Stats()
		c[cSwitchFwd] += st.Forwarded
		c[cSwitchDrops] += st.DroppedNoPort + st.DroppedDead
	}
	for _, a := range cl.GossipAgents() {
		s := a.Stats()
		c[cProbes] += s.ProbesSent
		c[cSuspicions] += s.Suspicions
		c[cDeadDeclared] += s.DeadDeclared
	}
	return c
}

func (c counters) sub(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

// modelledHostCPU returns the host library's modelled CPU cost per send and
// per receive in µs (Table 2's host-utilisation rows), averaged over nodes
// by operation count.
func modelledHostCPU(nodes []*gm.Node) (sendUs, recvUs float64) {
	var sNs, rNs, sN, rN float64
	for _, n := range nodes {
		s, r := n.CPU().Counts()
		sNs += float64(n.CPU().PerSend()) * float64(s)
		rNs += float64(n.CPU().PerRecv()) * float64(r)
		sN += float64(s)
		rN += float64(r)
	}
	if sN > 0 {
		sendUs = sNs / sN / 1e3
	}
	if rN > 0 {
		recvUs = rNs / rN / 1e3
	}
	return sendUs, recvUs
}
