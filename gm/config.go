// Package gm is the user-facing library of the Myrinet/GM reproduction: a
// deterministic simulation of a Myrinet cluster (hosts, LANai interface
// cards, switches, links) carrying GM's connectionless, token-flow-
// controlled, reliable ordered messaging — plus the paper's FTGM fault
// tolerance: continuous host-side state backup, a software watchdog that
// detects network-processor hangs, and transparent recovery driven by a
// fault-tolerance daemon (Lakamraju, Koren, Krishna, DSN 2003).
//
// The API mirrors GM's programming model (§3.1 of the paper): a process
// opens a port, provides receive buffers (relinquishing receive tokens),
// sends with a callback (relinquishing a send token), and gets tokens back
// through events. Fault recovery is completely transparent: applications
// written against this API need no changes to survive interface hangs when
// the cluster runs in FTGM mode — the library's internal handling of the
// FAULT_DETECTED event (the gm_unknown() path, §4.4) restores all state.
//
// Everything runs in virtual time on a discrete-event engine; see Cluster.
package gm

import (
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/gmproto"
	"repro/internal/gossip"
	"repro/internal/host"
	"repro/internal/lanai"
	"repro/internal/mapper"
	"repro/internal/mcp"
	"repro/internal/sim"
)

// Re-exported protocol types, so applications only import gm.
type (
	// NodeID identifies an interface after mapping.
	NodeID = gmproto.NodeID
	// PortID identifies one of the 8 GM ports of a node.
	PortID = gmproto.PortID
	// Priority is a GM message priority level.
	Priority = gmproto.Priority
	// SendStatus reports a send outcome to its callback.
	SendStatus = gmproto.SendStatus
)

// Re-exported constants.
const (
	PriorityLow  = gmproto.PriorityLow
	PriorityHigh = gmproto.PriorityHigh
	SendOK       = gmproto.SendOK
	MaxPorts     = gmproto.MaxPorts

	// Terminal send statuses a callback may observe.
	SendErrorDropped     = gmproto.SendErrorDropped
	SendErrorClosed      = gmproto.SendErrorClosed
	SendErrorUnreachable = gmproto.SendErrorUnreachable
)

// Mode selects stock GM or the paper's FTGM.
type Mode = mcp.Mode

// Modes.
const (
	ModeGM   = mcp.ModeGM
	ModeFTGM = mcp.ModeFTGM
)

// ControlPlane selects who repairs membership and routes after boot.
type ControlPlane int

// Control planes.
const (
	// ControlPlaneCentral is the classic plane: the network watchdog on the
	// mapping node re-runs the mapper and pushes fresh tables to everyone.
	// One coordinator, one repair path — and both die with node 0.
	ControlPlaneCentral ControlPlane = iota
	// ControlPlaneGossip replaces the central watchdog with a SWIM-style
	// membership agent on every node (internal/gossip): distributed probe
	// rounds, agreement-based expulsion and readmission, and local route
	// recomputation from a replicated link-state view. No single node's
	// death can take the repair path with it.
	ControlPlaneGossip
)

// String names the plane.
func (p ControlPlane) String() string {
	if p == ControlPlaneGossip {
		return "gossip"
	}
	return "central"
}

// HostConfig holds the host-side (library) timing constants. The GM values
// are from Myricom's published measurements quoted in §5.1; the FTGM deltas
// are the token-housekeeping costs the paper reports.
type HostConfig struct {
	// SendOverhead is the host-CPU cost of posting a send (~0.30 µs).
	SendOverhead sim.Duration
	// RecvOverhead is the host-CPU cost of receiving (~0.75 µs).
	RecvOverhead sim.Duration
	// ProvideOverhead is the host-CPU cost of providing a receive buffer.
	ProvideOverhead sim.Duration
	// FTGMSendExtra is FTGM's extra send cost: the shadow send-token copy
	// and sequence generation (~0.25 µs, §5.1).
	FTGMSendExtra sim.Duration
	// FTGMRecvExtra is FTGM's extra receive cost: updating the recv-token
	// hash table and the per-stream ACK-number hash table (~0.4 µs, §5.1).
	FTGMRecvExtra sim.Duration

	// SendTokens is the number of send tokens a process starts with per
	// port (§3.1: "a process starts out with a fixed number of send and
	// receive tokens").
	SendTokens int

	// RecoveryHandlerBase is the fixed cost of the FAULT_DETECTED handler
	// (the dominant share of the ~900,000 µs per-process recovery time of
	// Table 3: re-registering memory and re-synchronizing with the LANai).
	RecoveryHandlerBase sim.Duration
	// RecoveryPerToken is the cost of re-pushing one shadow token.
	RecoveryPerToken sim.Duration
	// RecoverySeqUpload is the cost of uploading the per-stream ACK table.
	RecoverySeqUpload sim.Duration
	// RecoveryReopen is the cost of the final port reopen handshake.
	RecoveryReopen sim.Duration

	// PerConnectionSeqSync is an ablation switch (DESIGN.md §6): model the
	// design the paper rejected, where host-generated sequence numbers are
	// kept strictly per connection and "all the processes on a node
	// sending messages to the same remote node need to be synchronized"
	// (§4.1). Each send then pays SeqSyncOverhead of host CPU on top of
	// the normal FTGM housekeeping.
	PerConnectionSeqSync bool
	// SeqSyncOverhead is the extra host cost per send in that design.
	SeqSyncOverhead sim.Duration
}

// DefaultHostConfig returns the calibrated host constants.
func DefaultHostConfig() HostConfig {
	return HostConfig{
		SendOverhead:        300 * sim.Nanosecond,
		RecvOverhead:        750 * sim.Nanosecond,
		ProvideOverhead:     300 * sim.Nanosecond,
		FTGMSendExtra:       250 * sim.Nanosecond,
		FTGMRecvExtra:       400 * sim.Nanosecond,
		SendTokens:          64,
		RecoveryHandlerBase: 830 * sim.Millisecond,
		RecoveryPerToken:    100 * sim.Microsecond,
		RecoverySeqUpload:   20 * sim.Millisecond,
		RecoveryReopen:      50 * sim.Millisecond,
		SeqSyncOverhead:     350 * sim.Nanosecond,
	}
}

// Config assembles the configuration of every layer.
type Config struct {
	// Mode selects GM or FTGM for the whole cluster.
	Mode Mode
	// Seed drives the deterministic RNG.
	Seed uint64

	Host   HostConfig
	MCP    mcp.Config
	Lanai  lanai.Config
	PCI    host.PCIConfig
	Link   fabric.LinkConfig
	Switch fabric.SwitchConfig
	Driver core.DriverConfig
	FTD    core.FTDConfig
	Mapper mapper.Config

	// NetWatch configures the network watchdog daemon (path-failure
	// detection, autonomous remap, alternate-route failover). Disabled by
	// default: stock GM/FTGM has no network-fault recovery.
	NetWatch core.NetWatchConfig

	// ControlPlane selects the post-boot repair plane. The zero value keeps
	// the classic central watchdog (see NetWatch); ControlPlaneGossip runs
	// a membership agent on every node instead.
	ControlPlane ControlPlane
	// Gossip configures the distributed membership agents (only read when
	// ControlPlane is ControlPlaneGossip). Zero fields take the defaults.
	Gossip gossip.Config

	// MapperConvergeTimeout caps how much virtual time Boot, Remap and the
	// network watchdog give the mapping protocol to converge before
	// declaring failure. <= 0 means the 10 s default.
	MapperConvergeTimeout sim.Duration

	// MapperRetries is how many extra synchronous mapping attempts Boot and
	// Remap make when an attempt hits MapperConvergeTimeout, with a capped
	// backoff between attempts and a doubled convergence cap each retry
	// (a congested or flapping fabric often converges given more budget).
	// 0 means the default (3 retries); negative disables retrying.
	MapperRetries int

	// Shards enables within-trial parallelism: every node (host + NIC) and
	// every switch becomes its own event domain, synchronized conservatively
	// with the link propagation delay as lookahead, and up to Shards OS
	// threads execute independent domains concurrently. Results, traces and
	// event schedules are bit-for-bit identical for every value >= 1 (see
	// DESIGN.md §12); 0 keeps the classic single-engine cluster.
	Shards int

	// ParallelThreshold is how many domains must have due work in a window
	// before it is dispatched to the worker pool instead of swept inline
	// (sim.Engine.SetParallelThreshold). 0 keeps the engine default. A
	// pure performance knob; results are identical for every value.
	ParallelThreshold int
}

// DefaultConfig returns the full calibrated stack in the given mode.
func DefaultConfig(mode Mode) Config {
	return Config{
		Mode:   mode,
		Seed:   1,
		Host:   DefaultHostConfig(),
		MCP:    mcp.DefaultConfig(),
		Lanai:  lanai.DefaultConfig(),
		PCI:    host.DefaultPCIConfig(),
		Link:   fabric.DefaultLinkConfig(),
		Switch: fabric.DefaultSwitchConfig(),
		Driver: core.DefaultDriverConfig(),
		FTD:    core.DefaultFTDConfig(),
		Mapper: mapper.DefaultConfig(),

		NetWatch:              core.DefaultNetWatchConfig(),
		MapperConvergeTimeout: 10 * sim.Second,
	}
}
