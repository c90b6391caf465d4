# Tier-1 verification gate. The experiment layer fans out across goroutines
# (internal/parallel), so the race detector is part of the gate, not an
# optional extra; bench-short smoke-runs every benchmark once so a broken
# bench path cannot land.
.PHONY: tier1 build vet fmt static test race chaos netfault gossip gossip-short ckpt ckpt-short ckpt-delta-short bench bench-short benchdiff quickbench scale-short

tier1: build vet fmt static race scale-short gossip-short ckpt-short ckpt-delta-short bench-short

# Fuzz campaign duration for the timed targets (gossip, ckpt); override
# with e.g. `make ckpt FUZZTIME=2m`.
FUZZTIME ?= 30s

build:
	go build ./...

vet:
	go vet ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# staticcheck when available; a bare toolchain passes the gate without it.
static:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; fi

test:
	go test ./...

race:
	go test -race ./...

# Short deterministic chaos campaign under the race detector: compound
# faults (dual hangs, hang-during-recovery, flapping/lossy cables, dead
# switch ports, failing reloads) with the exactly-once delivery audit.
chaos:
	go test -race -short -v -run 'Campaign' ./internal/chaos/

# Network-fault failover suite: dead trunks and partitions on the
# dual-switch fabric, GM vs FTGM vs FTGM+netwatch.
netfault:
	go test -race -v -run 'NetFault|NetworkFault|NetWatch|Remap' ./gm/ ./internal/core/ ./internal/mapper/ ./internal/chaos/ ./internal/experiments/

# Gossip control-plane campaign: the membership/link-state plane suite
# under the race detector (agents, gm wiring, mapper-death chaos and the
# control-plane comparison), then a timed fuzz campaign over the wire
# codec. The corpus itself runs in tier-1 as a plain test (gossip-short).
gossip:
	go test -race -v -run 'Gossip|ControlPlane|MapperDeath|Wire' \
		./internal/gossip/ ./gm/ ./internal/chaos/ ./internal/experiments/
	go test -fuzz FuzzDecodeGossip -fuzztime $(FUZZTIME) ./internal/gossip/

# Gossip smoke gate (tier1): the plane's unit suite and the fuzz corpus
# as plain tests under the race detector (no open-ended fuzzing in CI).
gossip-short:
	go test -race -run 'Gossip|Wire|Fuzz' ./internal/gossip/

# Host-fault campaign: endpoint checkpoint/restart under the race detector
# (drain/kill/restore unit suite, host-death and mapper-rebirth chaos
# campaigns, the experiment comparison, whole-sim snapshot/resume), then a
# timed fuzz campaign over the checkpoint wire codec.
ckpt:
	go test -race -v -run 'HostFault|HostDeath|MapperRebirth|Checkpoint|SnapshotResume|Periodic|Delta|ReplayChain' \
		./internal/ckpt/ ./internal/sim/ ./gm/ ./internal/chaos/ ./internal/experiments/
	go test -fuzz FuzzDecodeCheckpoint -fuzztime $(FUZZTIME) ./internal/ckpt/

# Checkpoint smoke gate (tier1): the wire codec's unit suite and fuzz
# corpus as plain tests plus the endpoint drain/kill/restore suite and the
# engine-level snapshot/resume contract, all under the race detector.
ckpt-short:
	go test -race -run 'Checkpoint|Fuzz' ./internal/ckpt/
	go test -race -run 'HostFault|HostDeath|SnapshotResume' ./gm/ ./internal/sim/

# Incremental-checkpoint smoke gate (tier1): the delta codec (round-trip,
# chain replay, reject cases, zero-alloc build), the periodic pipeline
# (bounded drain, chain replay bit-identity, restore-from-chain) and the
# periodic-ckpt chaos class (kill mid-chain, replay, exactly-once audit,
# shard invariance), all under the race detector.
ckpt-delta-short:
	go test -race -run 'Delta|ReplayChain|ApplyMerges|Fuzz' ./internal/ckpt/
	go test -race -run 'Periodic' ./gm/ ./internal/chaos/

# Sharded-engine smoke gate (tier1): the 64-node Clos storm trial and the
# small multi-core matrix on the sharded conservative-time engine under the
# race detector, plus the bit-for-bit shard-invariance trials (toy ring,
# chaos, netfault, gossip and the 256-node Clos fault storm) and the
# lookahead-registration guards. The second line is the compound-fault
# chaos cell: hang + link flap + host death, audited exactly-once and
# bit-identical at 1/4/8 shards.
scale-short:
	go test -race -run 'TestScaleShort|TestScaleMatrixSmall|TestShardInvariance|TestRingShardInvariance|TestZeroLookahead|TestEdgeLookahead' \
		./internal/sim/ ./internal/experiments/ ./gm/
	go test -race -short -run 'TestCampaignCompoundShardInvariance' ./internal/chaos/

# Full harness benchmark: regenerates the Figure 7/8, netfault,
# control-plane, host-fault, large-cluster scaling and multi-core matrix
# metrics with per-section wall-clock/allocation accounting and regression
# comparison against the committed baseline. Rewrites BENCH_10.json.
bench:
	go run ./cmd/gmbench -mode bw,lat,netfault,controlplane,hostfault,scale,scale_mc \
		-benchjson BENCH_10.json -baseline BENCH_9.json

# Bench smoke gate (tier1): every go-test benchmark runs once.
bench-short:
	go test -bench=. -benchtime=1x -run=^$$ .

# Regression gate: compare two -benchjson files, fail on >10% allocs/op
# regression in any shared section (ns/op differences only warn).
# Usage: make benchdiff OLD=BENCH_4.json NEW=/tmp/new.json
benchdiff:
	go run ./cmd/gmbench -mode benchdiff $(OLD) $(NEW)

# Engine-level microbenchmarks with allocation counts.
quickbench:
	go test -bench=BenchmarkEngine -benchmem -run=^$$ ./internal/sim/
