package core

import (
	"repro/internal/gmproto"
	"repro/internal/host"
	"repro/internal/lanai"
	"repro/internal/mcp"
	"repro/internal/sim"
)

// DriverConfig sets the host driver's timing constants.
type DriverConfig struct {
	// MCPLoadTime is how long loading the control program into LANai SRAM
	// takes; the paper measured ~500,000 µs of the FTD recovery spent in
	// the reload (§5.2).
	MCPLoadTime sim.Duration
	// InterruptLatency is the host interrupt delivery latency, ~13 µs
	// (§5.2).
	InterruptLatency sim.Duration
}

// DefaultDriverConfig matches the paper's measurements.
func DefaultDriverConfig() DriverConfig {
	return DriverConfig{
		MCPLoadTime:      500 * sim.Millisecond,
		InterruptLatency: 13 * sim.Microsecond,
	}
}

// Driver is the GM host device driver of one node: it loads the MCP,
// provides port bookkeeping, keeps the authoritative copies of the mapping
// output and the page hash table, and dispatches the FATAL interrupt to the
// FTD (§4.3). It also implements the naive restart baseline the paper
// argues against (§3).
type Driver struct {
	eng  *sim.Engine
	chip *lanai.Chip
	m    *mcp.MCP
	cfg  DriverConfig

	pageTable *host.PageTable
	routes    map[gmproto.NodeID][]byte
	nodeID    gmproto.NodeID

	// routesVer counts route-table replacements: SetRoutes swaps the whole
	// map, so a version compare is all incremental checkpointing needs to
	// decide whether a delta must re-carry the route section.
	routesVer uint64

	// openPorts remembers each open port's event sink so recovery can
	// reopen them.
	openPorts map[gmproto.PortID]mcp.EventSink

	onFatal      func()
	fataled      bool
	pendingFatal bool

	// onNetFault forwards the MCP's NET_FAULT_SUSPECTED reports (a stream
	// stalled through consecutive silent retransmit timeouts) to the network
	// watchdog, after the usual interrupt delivery latency.
	onNetFault func(gmproto.NodeID)

	// mcpLoadFailures makes the next N MCP loads fail (fault injection:
	// a reload can be disturbed by the same transient that hung the card).
	mcpLoadFailures int

	stats DriverStats
}

// DriverStats counts driver-level events.
type DriverStats struct {
	MCPLoads        uint64
	MCPLoadFailures uint64
	FatalInterrupts uint64
	// SuppressedFatals counts FATAL interrupts that arrived while a
	// recovery was already in hand; they are coalesced and re-delivered
	// once ClearFatal re-arms delivery.
	SuppressedFatals uint64
	NaiveRestarts    uint64
	// NetFaultReports counts NET_FAULT_SUSPECTED interrupts delivered to the
	// host (path-health suspicions raised by the MCP's send streams).
	NetFaultReports uint64
}

// NewDriver builds the driver for a node's chip/MCP pair.
func NewDriver(m *mcp.MCP, cfg DriverConfig) *Driver {
	d := &Driver{
		eng:       m.Chip().Engine(),
		chip:      m.Chip(),
		m:         m,
		cfg:       cfg,
		pageTable: host.NewPageTable(),
		openPorts: make(map[gmproto.PortID]mcp.EventSink),
	}
	d.chip.SetHostInterrupt(d.handleInterrupt)
	m.SetNetFaultSink(d.handleNetFault)
	return d
}

// MCP returns the control program this driver manages.
func (d *Driver) MCP() *mcp.MCP { return d.m }

// Chip returns the managed chip.
func (d *Driver) Chip() *lanai.Chip { return d.chip }

// PageTable returns the node's page hash table (§4.3).
func (d *Driver) PageTable() *host.PageTable { return d.pageTable }

// Stats returns driver counters.
func (d *Driver) Stats() DriverStats { return d.stats }

// SetOnFatal installs the FTD wakeup hook.
func (d *Driver) SetOnFatal(fn func()) { d.onFatal = fn }

// SetOnNetFault installs the network-watchdog wakeup hook: fn receives the
// NodeID of the suspected-dead destination after the interrupt latency.
func (d *Driver) SetOnNetFault(fn func(target gmproto.NodeID)) { d.onNetFault = fn }

// handleNetFault receives the MCP's path-health report. Like the FATAL
// interrupt, the handler itself cannot run a remap (not in process
// context), so it only forwards to the daemon.
func (d *Driver) handleNetFault(target gmproto.NodeID) {
	d.stats.NetFaultReports++
	d.eng.After(d.cfg.InterruptLatency, func() {
		if d.onNetFault != nil {
			d.onNetFault(target)
		}
	})
}

// SetRoutes stores the authoritative route table (mapper output); the FTD
// restores it into a recovering LANai.
func (d *Driver) SetRoutes(id gmproto.NodeID, routes map[gmproto.NodeID][]byte) {
	d.nodeID = id
	d.routesVer++
	d.routes = make(map[gmproto.NodeID][]byte, len(routes))
	for k, v := range routes {
		d.routes[k] = append([]byte(nil), v...)
	}
}

// Routes returns the stored route table.
func (d *Driver) Routes() map[gmproto.NodeID][]byte { return d.routes }

// RoutesVersion returns the route-table replacement counter.
func (d *Driver) RoutesVersion() uint64 { return d.routesVer }

// NodeID returns the stored interface identity.
func (d *Driver) NodeID() gmproto.NodeID { return d.nodeID }

// LoadMCP loads and starts the control program, charging the measured load
// time, then restores identity/routes/page-table registration and calls
// done. Injected load failures are swallowed here; callers that need to
// react to them use LoadMCPChecked.
func (d *Driver) LoadMCP(done func()) {
	d.LoadMCPChecked(func(ok bool) {
		if ok && done != nil {
			done()
		}
	})
}

// LoadMCPChecked is LoadMCP with an explicit success report: the full load
// time is always charged, but an injected failure leaves the chip stopped
// and reports ok=false so the FTD can retry with backoff.
func (d *Driver) LoadMCPChecked(done func(ok bool)) {
	d.stats.MCPLoads++
	d.eng.After(d.cfg.MCPLoadTime, func() {
		if d.mcpLoadFailures > 0 {
			d.mcpLoadFailures--
			d.stats.MCPLoadFailures++
			d.eng.Tracef("driver", "mcp load failed (injected)")
			if done != nil {
				done(false)
			}
			return
		}
		d.m.LoadAndStart()
		if d.routes != nil {
			d.m.SetNodeID(d.nodeID)
		}
		if done != nil {
			done(true)
		}
	})
}

// SetMCPLoadFailures makes the next n MCP loads fail (fault injection).
func (d *Driver) SetMCPLoadFailures(n int) {
	d.mcpLoadFailures = n
}

// OpenPort opens a GM port through the driver, remembering the sink for
// recovery-time reopen.
func (d *Driver) OpenPort(port gmproto.PortID, sink mcp.EventSink) error {
	if err := d.m.HostOpenPort(port, sink); err != nil {
		return err
	}
	d.openPorts[port] = sink
	return nil
}

// ClosePort closes a port and forgets it.
func (d *Driver) ClosePort(port gmproto.PortID) {
	d.m.HostClosePort(port)
	d.pageTable.UnpinPort(int(port))
	delete(d.openPorts, port)
}

// OpenPorts lists open ports in ascending order.
func (d *Driver) OpenPorts() []gmproto.PortID {
	var out []gmproto.PortID
	for p := gmproto.PortID(0); int(p) < gmproto.MaxPorts; p++ {
		if _, ok := d.openPorts[p]; ok {
			out = append(out, p)
		}
	}
	return out
}

// PortSink returns the remembered event sink of a port.
func (d *Driver) PortSink(port gmproto.PortID) mcp.EventSink { return d.openPorts[port] }

// handleInterrupt receives chip interrupts. A watchdog (IT1) expiry is the
// FATAL interrupt: the handler cannot run the recovery itself (it is not in
// process context — no sleep() or malloc(), §4.3), so it only wakes the
// daemon, after the interrupt delivery latency.
func (d *Driver) handleInterrupt(isr uint32) {
	if isr&lanai.ISRTimer1 == 0 {
		return
	}
	if d.fataled {
		// A recovery is already in hand. Don't wake the FTD again —
		// remember the report and re-deliver it once delivery is re-armed,
		// so a hang that lands mid-recovery is never silently lost.
		d.pendingFatal = true
		d.stats.SuppressedFatals++
		return
	}
	d.fataled = true
	d.stats.FatalInterrupts++
	d.eng.After(d.cfg.InterruptLatency, func() {
		if d.onFatal != nil {
			d.onFatal()
		}
	})
}

// ClearFatal re-arms FATAL interrupt delivery (recovery finished). A FATAL
// that was suppressed during the recovery is re-delivered now; the FTD's
// magic-word verification then decides whether it still warrants a reset.
func (d *Driver) ClearFatal() {
	d.fataled = false
	if !d.pendingFatal {
		return
	}
	d.pendingFatal = false
	d.fataled = true
	d.stats.FatalInterrupts++
	d.eng.After(d.cfg.InterruptLatency, func() {
		if d.onFatal != nil {
			d.onFatal()
		}
	})
}

// NaiveRestart is the baseline recovery the paper shows to be incorrect
// (§3): reset the card, reload the MCP, restore routes and reopen ports —
// but restore none of the protocol state. The reloaded MCP re-generates
// sequence numbers from scratch and adopts NACK expectations (Figure 4);
// messages that were ACKed but not yet DMAed are gone (Figure 5). The
// caller re-posts whatever tokens the application still remembers.
func (d *Driver) NaiveRestart(done func()) {
	d.stats.NaiveRestarts++
	d.chip.Reset()
	d.chip.ClearSRAM()
	d.LoadMCP(func() {
		if d.routes != nil {
			d.m.UploadRoutes(d.routes)
		}
		d.m.RegisterPageTable(d.pageTable.Len())
		for _, port := range d.OpenPorts() {
			d.m.ReopenPort(port, d.openPorts[port])
		}
		d.m.SetAdoptNackSeq(true)
		d.ClearFatal()
		if done != nil {
			done()
		}
	})
}
