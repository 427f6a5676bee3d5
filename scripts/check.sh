#!/usr/bin/env sh
# Repo-wide gate, stage-dispatched: `check.sh` runs every stage in order
# (this is what `make check` and CI run); `check.sh <stage>` runs exactly
# one, so CI jobs and local loops can target a slice of the gate without
# the command lines drifting apart.
set -eu

cd "$(dirname "$0")/.."

# RACE_PKGS is the single source of truth for race-detector coverage: the
# concurrency-heavy packages. mysql and binlog joined with the async
# durability pipeline (off-loop log writer, durable-index waits);
# transport carries the fault-injection wrapper whose delayed-delivery
# goroutines and Heal() flush are cross-goroutine handoffs too; storage
# and logstore joined with the bounded-log lifecycle (checkpoint encode
# under a live applier, purge/snapshot-reset against concurrent appends);
# multiraft runs many rings over one shared demux/fsync-group per node —
# the heaviest cross-goroutine surface in the repo; clock's precise
# sleep hands timerfds between goroutines through a shared free list.
RACE_PKGS="./internal/clock ./internal/raft ./internal/readpath ./internal/cluster ./internal/mysql ./internal/binlog ./internal/transport ./internal/storage ./internal/logstore ./internal/multiraft"

# STAGES is the stage table: "name<TAB>in-all<TAB>description", one row
# per stage. Usage and the `all` order derive from it, and every stage's
# test lines live in stage_spec below — adding a stage is one table row
# plus one spec case, with no per-stage function to copy-paste. chaos is
# not in `all` because the tests stage already runs the full campaign.
STAGES="lint	y	gofmt and go vet
build	y	go build ./..., and for darwin/arm64 and windows (the non-Linux sleep fallback)
tests	y	go test ./... (includes the full 20-seed chaos campaign)
race	y	race detector over the concurrency-heavy packages
compaction	y	bounded-log lifecycle slice
multiraft	y	multi-shard runtime slice (incl. online shard split)
parallelapply	y	writeset-scheduled replica applier slice
obs	y	write-path tracing + metrics export slice
pipeline	y	pipelined group-commit slice
fuzz	n	30 s per fuzz target over the disk, payload and wire decoders
repobench	y	bench/ module vet + tests and a 1 s-per-run smoke of the repo benchmark
chaos	n	fixed-seed chaos table (paper ring, 4 shards, split under load)"

# stage_spec maps a test stage to its rows, one per line:
#   ./pkg                  go test ./pkg
#   ./pkg=Regex            go test ./pkg -run 'Regex'
#   race:./p1 ./p2         go test -race -p 1 ./p1 ./p2
#   bench:./pkg=Regex      go test ./pkg -run '^$' -bench=Regex -benchtime=1x
#   fuzz:./pkg=Target      go test ./pkg -run '^$' -fuzz='^Target$' -fuzztime=30s
# (-p 1 for race rows: timing-sensitive integration tests get the machine
# to themselves — concurrent race-instrumented packages slow the
# schedulers enough to trip failover timeouts. One bench iteration keeps
# CI fast while still running each slice's package benchmark end to end.)
stage_spec() {
	case "$1" in
	tests)
		echo "./..."
		;;
	race)
		echo "race:$RACE_PKGS"
		;;
	chaos)
		# Every fixed-seed table entry, once: TestChaosSmoke's rows are
		# paper (single ring, seeds 1 7 42 3 11), 4-shard (3 nodes x 4
		# rings, seeds 1 7 10) and split (the five-action split-under-load
		# schedule, seeds 1 5), all on the one harness. Plus the schedule
		# determinism properties, the planted-leak check of the isolation
		# checker, and the repro command a failing seed prints.
		echo "./internal/chaos=TestChaosSmoke|TestSchedule|TestIsolationCheck|TestReproCommand"
		;;
	multiraft)
		# The multi-shard slice across its layers: shard-envelope framing
		# and demux coalescing, router/sync-group/runtime units, the split
		# protocol, the 3x16 acceptance scenario with the leader balancer,
		# and the shard-scoped admin server. (The multi-shard and split
		# chaos runs are rows of the chaos stage's table; the repo
		# benchmark's sharded_mixed workload measures the runtime.)
		cat <<-EOF
		./internal/wire=Shard|Coalesced
		./internal/transport=Demux
		./internal/multiraft
		./internal/adminapi=TestMulti|TestSplit|TestShardScoped|TestRuntimeRollup
		EOF
		;;
	parallelapply)
		# The parallel-apply slice across its layers: writeset extraction
		# and payload framing, dependency tracking and batch scheduling
		# (the serial-equivalence property tests), the coalesced commit
		# notifier, the range read the batch applier leans on, and the relay
		# log's in-memory tail it reads from (tail = files, eviction, and a
		# lagging replica catching up through the files, then from memory).
		# (Every chaos run applies in parallel and checks serial
		# equivalence.)
		cat <<-EOF
		./internal/storage=Writeset|TxnPayload
		./internal/mysql=Parallel|Waiters|Apply
		./internal/raft=CommitNotifier
		./internal/binlog=Entries|Tail
		bench:./internal/mysql=BenchmarkParallelApply
		EOF
		;;
	obs)
		# The observability slice with the race detector on its hot
		# handoffs: histogram reservoirs and registry maps under concurrent
		# Observe/Snapshot, the tracer's armed-span handoff and journal,
		# and the admin /metrics and /trace scrapes against live runtimes.
		cat <<-EOF
		race:./internal/metrics ./internal/trace ./internal/adminapi
		./internal/cluster=TestWritePathTraces|TestMemberRegistries|TestRegistriesSurvive|TestTraceSampling
		./internal/raft=TestLogWriterObservesSpanStages|TestProposeObservesReplicateStage
		./internal/binlog=TestStatsCounts
		EOF
		;;
	pipeline)
		# The pipelined group-commit slice across its layers: batched raft
		# ingress with the allocation-free commit advance, read-round
		# confirmation, copy-free entry cache ring and GTID append path it
		# leans on, the
		# flusher/committer overlap with its durability, demotion-race,
		# GTID-cursor and depth-1-serial contracts, engine sync coalescing,
		# the byte-identical WAL/payload/binlog encoders, the loopback +
		# drop-counter transport satellites, the replication copy path
		# (sized wire encoder against its reference, in-place decoding,
		# one-buffer TCP frames, payloads surviving scratch reuse, one
		# encode per broadcast). (Every chaos run commits through the
		# depth-4 pipeline; the repo benchmark's mysql.pipeline_* metrics
		# measure it.)
		cat <<-EOF
		./internal/raft=ProposeBatch|AdvanceLeaderCommit|WaitDurable|Cache|ReadRound|Broadcast
		./internal/wire
		./internal/quorum
		./internal/gtid
		./internal/mysql=Pipeline|Demotion|GTIDCursor
		./internal/storage=Sync|Encode
		./internal/binlog=Encode
		./internal/transport=TCPDrop|TCPLoopback|Frame
		EOF
		;;
	fuzz)
		# Decoders of bytes read back from disk or the network: the binlog
		# entry decoder (recovery and every in-memory-tail miss), the
		# transaction payload decoders the applier runs on every entry, the
		# engine WAL record decoder engine recovery runs, the replica's
		# payload staging that writes its prepare record, the wire decoder
		# every received message goes through, the config decoder for
		# config entries and InstallSnapshot messages, and the checkpoint
		# decoder for InstallSnapshot's engine state.
		cat <<-EOF
		fuzz:./internal/binlog=FuzzReadEntryAt
		fuzz:./internal/storage=FuzzDecodeChanges
		fuzz:./internal/storage=FuzzDecodeTxnPayload
		fuzz:./internal/storage=FuzzDecodeWALRecord
		fuzz:./internal/storage=FuzzStagePayload
		fuzz:./internal/storage=FuzzDecodeCheckpoint
		fuzz:./internal/wire=FuzzUnmarshal
		fuzz:./internal/wire=FuzzDecodeConfig
		EOF
		;;
	compaction)
		# The log-lifecycle slice across every layer it touches: binlog
		# purge and snapshot-anchor mechanics, engine checkpoints and the
		# purge guard, raft snapshot streaming, and the two cluster
		# acceptance scenarios (crashed-behind-floor catch-up, fast-join
		# via snapshot).
		cat <<-EOF
		./internal/binlog=Purge|Anchor|Reset
		./internal/storage=Checkpoint
		./internal/mysql=Purge|Checkpoint
		./internal/raft=Snapshot
		./internal/cluster=TestPurgeAndSnapshotCatchup|TestAddMemberFastJoinViaSnapshot
		bench:./internal/mysql=BenchmarkSnapshotCatchup
		EOF
		;;
	*)
		return 1
		;;
	esac
}

stage_lint() {
	echo "== gofmt -l"
	fmt=$(gofmt -l .)
	if [ -n "$fmt" ]; then
		echo "files need gofmt:" >&2
		echo "$fmt" >&2
		exit 1
	fi
	echo "== go vet ./..."
	go vet ./...
}

stage_build() {
	echo "== go build ./..."
	go build ./...
	# clock's precise sleep is Linux-only; these keep its fallback compiling.
	echo "== GOOS=darwin GOARCH=arm64 go build ./..."
	GOOS=darwin GOARCH=arm64 go build ./...
	echo "== GOOS=windows go build ./..."
	GOOS=windows go build ./...
}

# bench/ is its own module (replace myraft => ../), so the root
# `go vet ./...` and `go test ./...` never compile it. This stage does,
# and runs every workload once, so a change to an API the benchmark
# imports fails here rather than in the benchmark driver.
stage_repobench() {
	echo "== repobench: cd bench && go vet ./... && go test ./..."
	(cd bench && go vet ./... && go test ./...)
	echo "== repobench: bash bench/run.sh -smoke"
	bash bench/run.sh -smoke
}

run_stage() {
	case "$1" in
	lint | build | repobench)
		"stage_$1"
		return
		;;
	esac
	echo "== $1: $(stage_desc "$1")"
	stage_spec "$1" | while IFS= read -r row; do
		[ -n "$row" ] || continue
		case "$row" in
		fuzz:*)
			spec=${row#fuzz:}
			pkg=${spec%%=*}
			target=${spec#*=}
			echo "-- fuzz $target ($pkg, 30 s)"
			go test "$pkg" -run '^$' -fuzz="^$target\$" -fuzztime=30s
			;;
		bench:*)
			spec=${row#bench:}
			pkg=${spec%%=*}
			pat=${spec#*=}
			echo "-- bench $pat ($pkg, 1 iteration)"
			go test "$pkg" -run '^$' -bench="$pat" -benchtime=1x
			;;
		race:*)
			pkgs=${row#race:}
			echo "-- go test -race -p 1 $pkgs"
			# shellcheck disable=SC2086
			go test -race -p 1 $pkgs
			;;
		*=*)
			pkg=${row%%=*}
			pat=${row#*=}
			echo "-- go test $pkg -run '$pat'"
			go test "$pkg" -run "$pat"
			;;
		*)
			echo "-- go test $row"
			# shellcheck disable=SC2086
			go test $row
			;;
		esac
	done
}

stage_desc() {
	printf '%s\n' "$STAGES" | awk -F'\t' -v s="$1" '$1 == s { print $3 }'
}

stage_names() {
	printf '%s\n' "$STAGES" | awk -F'\t' '{ printf "%s%s", sep, $1; sep="|" } END { print "" }'
}

stage="${1:-all}"
if [ "$stage" = all ]; then
	printf '%s\n' "$STAGES" | while IFS='	' read -r name inall _; do
		if [ "$inall" = y ]; then
			run_stage "$name"
		fi
	done
elif [ -n "$(stage_desc "$stage")" ]; then
	run_stage "$stage"
else
	echo "usage: $0 [$(stage_names)]" >&2
	exit 2
fi

echo "== OK"
