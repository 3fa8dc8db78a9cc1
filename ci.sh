#!/usr/bin/env bash
# Local CI: build, test, format and lint the whole workspace.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo build --release =="
cargo build --release --workspace

echo "== pinned digests: no std DefaultHasher in program sources =="
# Upload, near-duplicate and refusal digests are persisted (seen set,
# WAL, trace ids), so they go through busprobe_core::digest — SipHash-1-3
# with zero keys, pinned in-tree. std's DefaultHasher is unspecified
# across releases and must not come back under crates/*/src or src/.
if grep -rn 'DefaultHasher' crates/*/src src; then
  echo "DefaultHasher found; use busprobe_core::digest::Digest" >&2
  exit 1
fi

echo "== cargo test =="
# One run of every test binary in the workspace. Among them, the suites
# that carry the contracts below; none needs a flag of its own, so none
# is run a second time.
#
# Fault matrix (tests/faults.rs, the chaos suite): the graceful-
# degradation contract at each fault level — no panics, every drop
# attributed, bounded error growth.
#
# Differential suite (serial == parallel, bit-identical): the
# parallel-ingest equivalence proof at worker counts {1,2,4,8} on clean
# and fault-injected corpora, the randomized determinism properties, the
# golden-corpus snapshots and the concurrency stress tests
# (tests/differential.rs, determinism_prop.rs, golden.rs,
# stress_concurrency.rs; DESIGN.md "Parallelism"). Among the stress
# tests, two durable races run 20 rounds each and recover the state dir
# to the live state byte for byte:
# a_refresh_racing_a_durable_batch_recovers_to_the_live_state (refresh
# loop against a grouped durable batch) and
# a_checkpoint_racing_a_parallel_batch_recovers_to_the_live_state
# (checkpoint loop against a parallel batch).
#
# Batch-scorer equivalence (batched == per-scan == brute): the trip-level
# batched SoA scorer against the per-scan query (the same pool, one
# fingerprint) and the brute-force reference: bit-identical scores and
# identical match sets on randomized databases, through index
# maintenance churn, at γ <= 0 (where pruning is unsound), and on trips
# far past the per-pool distinct-fingerprint cap, answered in several
# pools (crates/core/tests/batch_equivalence.rs).
#
# Derived-table equivalence (chains ≡ route scans, city plan ≡
# reference): the on-demand segment chains and the `follows` bitmap
# against scans of the routes — chains in id order for every ordered
# site pair, keys and totals bit for bit, and every stop pair i < j —
# on generated, hand-assembled (loop route, hop ties, a strictly shorter
# later route) and composed networks and on a network.json carrying
# stale derived fields; and the dense-array city plan against the
# ordered-map build it replaced, at 1-16 shards on generated networks,
# calibrated districts, a metropolis and a cell shared across otherwise
# separate routes (crates/network/tests/properties.rs,
# crates/shard/tests/partition_properties.rs).
#
# Serve suite (overload shedding + kill -9 crash matrix): sustained 2x
# overload sheds with every drop attributed over a bounded queue,
# block-policy backpressure never drops, drain flushes acks and
# checkpoints, the watchdog fails fast on a stalled commit loop
# (tests/serve_stream.rs) — and on real processes, kill -9 mid-stream
# never loses an acked upload, a full re-send restores byte-identity
# with batch ingest, and SIGTERM/SIGINT exit 0 after checkpointing
# (tests/serve_crash.rs). The wire decoder is a hand-written byte
# scanner, proved equivalent to the serde_json Value-tree reader it
# replaced (kept as the oracle): on random, restyled and byte-mutated
# lines and all four commands, both accept and refuse the same lines,
# decode the same requests to the bit and refuse with the same reason
# and digest, and upload_line writes what the tree writer wrote
# (tests/fuzz_protocol.rs).
#
# Crash-recovery matrix (WAL + snapshot durability): workers {1,4} x
# snapshot cadence {1,7,none} x crash point {early, mid,
# torn-last-record}: recover, resume, and the final state must be
# bit-identical to a run that never crashed. Plus storage-level fault
# injection: bit-flipped records are skipped with attribution, corrupt
# snapshots fall back to full WAL replay. A second matrix covers group
# commit: workers {1,4} x group window {1,8,64} x crash {inside window,
# at a window boundary, torn group frame} (tests/crash_recovery.rs).
# Snapshot payloads are a hand-rolled binary codec read from disk, where
# hostile bytes arrive: on a real checkpoint's payload, every truncation
# and every count blown up to u32::MAX is refused, seeded byte flips
# never panic and decode only to states that re-encode to themselves,
# mutated .snap frames never panic the frame decoder, and a refused
# snapshot is skipped, counted and replaced by an exact WAL replay
# (tests/fuzz_snapshot.rs).
cargo test -q --workspace

echo "== CLI differential: ingest --jobs 1 vs --jobs 4 =="
# End-to-end through the binary: the same simulated day ingested with 1
# and 4 workers must export byte-identical GeoJSON.
tmpdir=$(mktemp -d)
# On every exit, a failed check included, kill and reap the servers the
# drills below start in the background, then delete the scratch dir.
cleanup() {
  local pids
  pids=$(jobs -p)
  if [ -n "$pids" ]; then
    kill -KILL $pids 2>/dev/null || true
    wait $pids 2>/dev/null || true
  fi
  rm -rf "$tmpdir"
}
trap cleanup EXIT
./target/release/busprobe init --dir "$tmpdir" --small --seed 7 >/dev/null
./target/release/busprobe simulate --dir "$tmpdir" --faults calibrated >/dev/null
./target/release/busprobe ingest --dir "$tmpdir" --jobs 1 --geojson "$tmpdir/jobs1.geojson" >/dev/null
./target/release/busprobe ingest --dir "$tmpdir" --jobs 4 --geojson "$tmpdir/jobs4.geojson" >/dev/null
cmp "$tmpdir/jobs1.geojson" "$tmpdir/jobs4.geojson"

echo "== CLI trace drill: explain a drop, cross-jobs JSONL identity =="
# End-to-end tracing through the binary on the fault-injected corpus:
# the JSONL decision traces must be byte-identical at 1 and 4 workers,
# the Chrome export must be produced, and `explain` must narrate a
# dropped upload's decision chain ending in its attributed reason.
./target/release/busprobe trace --dir "$tmpdir" --jobs 1 \
  --jsonl "$tmpdir/traces1.jsonl" --out "$tmpdir/traces.json" >/dev/null
./target/release/busprobe trace --dir "$tmpdir" --jobs 4 \
  --jsonl "$tmpdir/traces4.jsonl" >/dev/null
cmp "$tmpdir/traces1.jsonl" "$tmpdir/traces4.jsonl"
test -s "$tmpdir/traces.json"
./target/release/busprobe explain --dir "$tmpdir" > "$tmpdir/outcomes.out"
dropped_seq=$(grep -m1 'dropped' "$tmpdir/outcomes.out" | awk '{print $1}')
./target/release/busprobe explain --dir "$tmpdir" "$dropped_seq" \
  > "$tmpdir/explain.out"
grep -q "outcome: dropped" "$tmpdir/explain.out"

echo "== trace overhead gate (disabled hooks <1% of per-trip ingest) =="
# The tracing hooks stay on the ingest hot path even with no sink
# attached; this release-mode test times that exact sequence against
# real per-trip ingest and asserts the ratio (crates/bench/tests/overhead.rs).
# Its sibling, the <5% telemetry budget, reads 4.3-5.6% and does not pass
# reliably, so it is not run here.
cargo test --release -q -p busprobe-bench --test overhead \
  disabled_trace_hooks_cost_under_1_percent_of_ingest -- --ignored --nocapture

echo "== CLI crash drill: kill -9 a durable server, tear the WAL, recover, resume =="
# End-to-end durability through the binary, on a real crash: a durable
# server takes N uploads (all acked), is SIGKILLed, and the newest WAL
# segment is truncated mid-record (a crash mid-append). The torn record
# is one no snapshot covers: `recover` must replay the intact records
# past the last snapshot and attribute the torn tail, and a resumed
# ingest must re-commit the torn uploads and export GeoJSON
# byte-identical to an uninterrupted run (duplicate commits are
# rejected by digest).
# $1: state dir, $2: uploads to send; the rest are extra serve flags.
crash_drill() {
  local state=$1 uploads=$2 sent=0 tail
  shift 2
  ./target/release/busprobe serve --dir "$tmpdir" --socket "$state.sock" --state "$state" \
    "$@" >/dev/null 2>&1 &
  local pid=$!
  for _ in $(seq 100); do [ -S "$state.sock" ] && break; sleep 0.1; done
  ./target/release/busprobe send --dir "$tmpdir" --socket "$state.sock" --limit "$uploads" \
    > "$state.send" || sent=$?
  # Killed before anything is checked, so a failed check leaves no
  # server behind.
  kill -KILL "$pid"
  wait "$pid" 2>/dev/null || true
  test "$sent" -eq 0
  grep -q "$uploads acked, 0 dropped" "$state.send"
  tail=$(ls "$state"/*.wal | sort | tail -n 1)
  truncate -s -9 "$tail"
  ./target/release/busprobe recover --dir "$tmpdir" --state "$state" > "$state.recover"
  grep -q "1 torn segment tails" "$state.recover"
}
# One fsync per commit and a snapshot every 5 records: the last
# snapshot covers 10 of the 12, record 10 replays, record 11 is torn.
crash_drill "$tmpdir/state" 12 --snapshot-every 5 --sync-every 1
grep -q "snapshot covering 10 records + 1 replayed commits" "$tmpdir/state.recover"
grep -q "left 1 covered WAL segments unread" "$tmpdir/state.recover"
./target/release/busprobe ingest --dir "$tmpdir" --state "$tmpdir/state" \
  --geojson "$tmpdir/resumed.geojson" >/dev/null
cmp "$tmpdir/jobs1.geojson" "$tmpdir/resumed.geojson"

echo "== CLI group-commit crash drill: tear a group frame, recover, resume =="
# The same drill on the group-commit path, where each commit batch is
# one WAL frame of up to --sync-every commits. The commit throttle holds
# every batch 300 ms, so all 26 uploads are queued before the second
# batch is taken: whatever the first batch took, the batches from record
# 8 on are [8,16), [16,24) and [24,26). The snapshot every 16 records
# lands at 16, so `recover` replays the group frame [16,24) whole, and
# the torn tail is the BPG1 group frame [24,26). A resumed grouped
# ingest re-commits both torn uploads and nothing doubles.
crash_drill "$tmpdir/gstate" 26 --snapshot-every 16 --sync-every 8 --commit-throttle-ms 300
grep -q "snapshot covering 16 records + 8 replayed commits" "$tmpdir/gstate.recover"
gwal_tail=$(ls "$tmpdir"/gstate/*.wal | sort | tail -n 1)
LC_ALL=C grep -aob 'BP[WG]1' "$gwal_tail" | tail -n 1 | grep -q BPG1
./target/release/busprobe ingest --dir "$tmpdir" --state "$tmpdir/gstate" \
  --group-every 8 --geojson "$tmpdir/gresumed.geojson" >/dev/null
cmp "$tmpdir/jobs1.geojson" "$tmpdir/gresumed.geojson"

echo "== CLI snapshot fallback drill: corrupt the newest snapshot, recover, resume =="
# Compaction keeps two snapshot generations and the WAL after the older
# one. A durable ingest of 24 uploads checkpoints at 16 (--snapshot-every)
# and at 24 (the end of the run); with one byte of the newest snapshot
# flipped, `recover` must pass it over and seed from the snapshot at 16
# plus the 8 records after it, and a resumed ingest must export GeoJSON
# byte-identical to an uninterrupted run.
flip_last_byte() {
  local size byte
  size=$(stat -c %s "$1")
  byte=$(tail -c 1 "$1" | od -An -tu1 | tr -d ' ')
  printf "$(printf '\\%03o' $((byte ^ 1)))" | dd of="$1" bs=1 seek=$((size - 1)) conv=notrunc 2>/dev/null
}
./target/release/busprobe ingest --dir "$tmpdir" --state "$tmpdir/fstate" --limit 24 \
  --snapshot-every 16 >/dev/null
flip_last_byte "$(ls "$tmpdir"/fstate/*.snap | sort | tail -n 1)"
./target/release/busprobe recover --dir "$tmpdir" --state "$tmpdir/fstate" > "$tmpdir/fstate.recover"
grep -q "1 corrupt snapshots passed over" "$tmpdir/fstate.recover"
grep -q "snapshot covering 16 records + 8 replayed commits" "$tmpdir/fstate.recover"
./target/release/busprobe ingest --dir "$tmpdir" --state "$tmpdir/fstate" \
  --geojson "$tmpdir/fresumed.geojson" >/dev/null
cmp "$tmpdir/jobs1.geojson" "$tmpdir/fresumed.geojson"
# Second leg, on a fresh state dir: with *both* retained snapshots
# flipped, recovery can only replay the 8 records compaction left after
# 16. It must say that the records before seq 16 are gone, not claim a
# cold start and a full WAL replay.
./target/release/busprobe ingest --dir "$tmpdir" --state "$tmpdir/lstate" --limit 24 \
  --snapshot-every 16 >/dev/null
for snap in "$tmpdir"/lstate/*.snap; do flip_last_byte "$snap"; done
./target/release/busprobe recover --dir "$tmpdir" --state "$tmpdir/lstate" > "$tmpdir/lstate.recover"
grep -q "2 corrupt snapshots passed over" "$tmpdir/lstate.recover"
grep -q "records before seq 16 were compacted away" "$tmpdir/lstate.recover"
grep -q "state accounts for 24 commits" "$tmpdir/lstate.recover"
if grep -q "cold start + full WAL replay" "$tmpdir/lstate.recover"; then
  echo "recover claimed a full WAL replay of a compacted log" >&2
  exit 1
fi

echo "== CLI serve drill: stream over a socket, SIGTERM drain, compare =="
# End-to-end through the resident server: serve the simulated world on
# a unix socket with a durable state dir, stream the whole corpus with
# a deliberately flaky producer (bursts, pauses, disconnects that
# re-send the unacked tail), SIGTERM must drain to exit 0 with a final
# checkpoint, and the published GeoJSON must be byte-identical to a
# plain batch ingest of the same corpus — for the district (one shard)
# and for a city of four, whose front routes every upload to a shard.
for shards in 1 4; do
  ./target/release/busprobe serve --dir "$tmpdir" --socket "$tmpdir/serve$shards.sock" \
    --state "$tmpdir/serve$shards-state" --shards "$shards" --publish "$tmpdir/publish$shards" \
    --jobs 2 --queue 64 --sync-every 16 --publish-interval-s 0.2 \
    > "$tmpdir/serve$shards.out" &
  serve_pid=$!
  for _ in $(seq 100); do [ -S "$tmpdir/serve$shards.sock" ] && break; sleep 0.1; done
  ./target/release/busprobe send --dir "$tmpdir" --socket "$tmpdir/serve$shards.sock" \
    --stream-faults flaky > "$tmpdir/send$shards.out"
  grep -q "all uploads accounted for" "$tmpdir/send$shards.out"
  kill -TERM "$serve_pid"
  wait "$serve_pid"
  grep -q "drained:" "$tmpdir/serve$shards.out"
  grep -q "final checkpoint covers" "$tmpdir/serve$shards.out"
  test -s "$tmpdir/publish$shards/metrics.prom"
  cmp "$tmpdir/jobs1.geojson" "$tmpdir/publish$shards/map.geojson"
done

echo "== CLI serve --stdin drill: ping, stats, shutdown =="
# stdin is read by the same connection reader as a socket: the commands
# are answered in order, `shutdown` drains every engine and the process
# exits 0 — for the district and for a city of four.
for shards in 1 4; do
  printf '%s\n' '{"cmd":"ping"}' '{"cmd":"stats"}' '{"cmd":"shutdown"}' \
    | ./target/release/busprobe serve --dir "$tmpdir" --stdin --shards "$shards" \
    > "$tmpdir/stdin$shards.out"
  grep -q '"ok":"pong"' "$tmpdir/stdin$shards.out"
  grep -q '"ok":"stats"' "$tmpdir/stdin$shards.out"
  grep -q 'draining' "$tmpdir/stdin$shards.out"
  grep -q 'drained:' "$tmpdir/stdin$shards.out"
done

echo "== CLI sharding drill: --shards 1 vs --shards 4 =="
# One shard is the default and the only code path, so there is no flat
# twin to compare it with: its durable ingest keeps the WAL at the root
# of the state dir with no manifest. The federated GeoJSON must be
# byte-identical at every shard count, and a flagless recover of the
# 4-shard state dir must find the four shards and reproduce it.
./target/release/busprobe ingest --dir "$tmpdir" --shards 1 \
  --state "$tmpdir/s1-state" --geojson "$tmpdir/s1.geojson" >/dev/null
cmp "$tmpdir/jobs1.geojson" "$tmpdir/s1.geojson"
ls "$tmpdir"/s1-state/*.wal >/dev/null
test ! -e "$tmpdir/s1-state/city.json"
./target/release/busprobe ingest --dir "$tmpdir" --shards 4 \
  --state "$tmpdir/s4-state" --geojson "$tmpdir/s4.geojson" > "$tmpdir/s4.out"
cmp "$tmpdir/jobs1.geojson" "$tmpdir/s4.geojson"
grep -q "conservation holds" "$tmpdir/s4.out"
./target/release/busprobe recover --dir "$tmpdir" --state "$tmpdir/s4-state" \
  --geojson "$tmpdir/s4recover.geojson" > "$tmpdir/s4recover.out"
grep -q "recovered sharded state" "$tmpdir/s4recover.out"
cmp "$tmpdir/jobs1.geojson" "$tmpdir/s4recover.geojson"

echo "== metropolis smoke: 5k-stop city, aggregated GeoJSON at shards 1 vs 4 =="
# A reduced-scale synthetic metropolis ingested end to end through the
# sharded monitor; the aggregated city GeoJSON must be byte-identical
# across shard counts, and conservation must hold.
./target/release/busprobe city --stops 5000 --trips 4000 --shards 1 --jobs 1 \
  --geojson "$tmpdir/city-s1.geojson" > "$tmpdir/city-s1.out"
grep -q "conservation holds" "$tmpdir/city-s1.out"
./target/release/busprobe city --stops 5000 --trips 4000 --shards 4 --jobs 1 \
  --geojson "$tmpdir/city-s4.geojson" > "$tmpdir/city-s4.out"
grep -q "conservation holds" "$tmpdir/city-s4.out"
cmp "$tmpdir/city-s1.geojson" "$tmpdir/city-s4.geojson"

echo "== benchmark: pinned names compile, district, city and live stream end to end =="
# benchmark/ is its own workspace, so the root `cargo test` never
# compiles it: its unit tests are the only place a renamed item it pins
# (benchmark/README.md) fails to build. One short district_batch run
# then drives batch, parallel, durable, stream and recovery end to end
# and exits non-zero on any correctness violation; district_batch never
# executes the router, the fan-out or the city aggregator, so a short
# city_batch run follows it (non-zero if the sharded map digest, the
# per-reason outcome counts or shard conservation diverge from the
# unsharded reference). Neither sends an upload with an arrival stamp
# through the socket; durable_stream's partial-trip flushes do (non-zero
# on any unacked, doubly acked or unrecovered upload). Regressions are
# judged by the driver, parent against change on one box, within the
# bounds in BENCHMARK.json — not here against a frozen baseline.
# --locked: a dependency edit that would rewrite benchmark/Cargo.lock fails
# here rather than being rewritten quietly by run.sh.
cargo test -q --offline --locked --manifest-path benchmark/Cargo.toml
bash benchmark/run.sh --workload district_batch --seconds 3 --trace 0
bash benchmark/run.sh --workload city_batch --seconds 3 --trace 0
# The traced city leg runs the per-layer probes the untraced legs skip —
# among them the pinned `Matcher::probe_candidates` — and checks the
# traced city map against the real one.
bash benchmark/run.sh --workload city_batch --seconds 3 --trace 1
bash benchmark/run.sh --workload durable_stream --seconds 3 --trace 0
# crash_restart is the workload WAL replay, checkpoint and restart
# dominate, over a 40 h history: non-zero unless every recovery, from
# the WAL image and from the snapshot image, ends with the live map
# digest, the full commit count and no skipped or corrupt records.
bash benchmark/run.sh --workload crash_restart --seconds 3 --trace 0

echo "== results/: every committed figure output regenerates byte-for-byte =="
# Each results/<bin>.txt is exactly the stdout of the busprobe-bench
# binary <bin> (all seeded); rerun every one and compare.
for f in results/*.txt; do
  ./target/release/"$(basename "$f" .txt)" | cmp - "$f"
done

echo "== cargo doc (our crates, rustdoc warnings denied) =="
# Broken, private or redundant intra-doc links in the root package and
# crates/* fail here, so a moved or renamed item cannot leave a dangling
# link. The vendored stand-ins under vendor/ are path dependencies, hence
# workspace members; they are excluded.
ours=(-p busprobe)
for crate in crates/*/; do ours+=(-p "busprobe-$(basename "$crate")"); done
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline "${ours[@]}"

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "CI OK"
