//! The `busprobe` command-line tool: run the whole participatory traffic
//! monitor as a file-based workflow — `init` a region, `simulate` a
//! service window into uploads, `ingest` them into a traffic map
//! (durably with `--state`, regionally sharded with `--shards`),
//! `recover` a state directory, `serve`/`send` the same pipeline over a
//! socket, and `explain`/`trace`/`metrics` what it did. [`USAGE`] is the
//! reference for every flag.
//!
//! Artifacts in DIR: `world.json` (metadata), `network.json`,
//! `towers.json`, `db.json`, `trips.json`, and — when simulating with
//! faults — `received.json` (per-upload server-side arrival times, which
//! ingest uses to bound phone clock skew).
//!
//! One module per command family; `ingest::open` is the only place that
//! builds a monitor, so every stateful command agrees on what a state
//! directory holds. Every command refuses a flag its usage line does not
//! name.

// These shadow std's print macros: once a reader closes the pipe early
// (`| head -1`), output is dropped and the command runs to its end.
macro_rules! print {
    ($($arg:tt)*) => {
        if let Err(e) = std::io::Write::write_fmt(&mut std::io::stdout(), format_args!($($arg)*)) {
            assert!(e.kind() == std::io::ErrorKind::BrokenPipe, "failed printing to stdout: {e}");
        }
    };
}
macro_rules! println {
    () => { print!("\n") };
    ($($arg:tt)*) => { print!("{}\n", format_args!($($arg)*)) };
}

mod args;
mod city;
mod ingest;
mod metrics;
mod send;
mod serve;
mod trace;
mod world;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let result = match args.first().map(String::as_str) {
        Some("init") => world::cmd_init(rest),
        Some("simulate" | "sim") => world::cmd_simulate(rest),
        Some("ingest") => ingest::cmd_ingest(rest),
        Some("recover") => ingest::cmd_recover(rest),
        Some("explain") => trace::cmd_explain(rest),
        Some("trace") => trace::cmd_trace(rest),
        Some("demo") => city::cmd_demo(rest),
        Some("city") => city::cmd_city(rest),
        Some("metrics") => metrics::cmd_metrics(rest),
        Some("serve") => serve::cmd_serve(rest),
        Some("send") => send::cmd_send(rest),
        Some("--help" | "-h" | "help") | None => {
            print!("{}", USAGE);
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
busprobe — participatory urban traffic monitoring (ICDCS'15 reproduction)

USAGE:
    busprobe init     --dir DIR [--seed N] [--small]
    busprobe simulate --dir DIR [--start HH:MM] [--end HH:MM] [--participation F] [--seed N]
                      [--faults SPEC] [--fault-seed N]
    busprobe ingest   --dir DIR [--jobs N] [--snapshot HH:MM] [--regional] [--geojson FILE]
                      [--state DIR] [--snapshot-every N] [--group-every N] [--limit N]
                      [--shards N]
    busprobe recover  --dir DIR --state DIR [--snapshot HH:MM] [--geojson FILE]
    busprobe explain  --dir DIR [TRIP-ID] [--jobs N]
    busprobe trace    --dir DIR [--out FILE] [--jsonl FILE] [--sample-every N] [--jobs N]
    busprobe demo     [--seed N]
    busprobe city     [--seed N] [--stops N] [--trips N] [--shards N] [--jobs N]
                      [--geojson FILE]
    busprobe metrics  --dir DIR [--format text|json|prometheus] [--state DIR] [--shards N]
    busprobe serve    --dir DIR (--socket PATH | --stdin) [--state DIR] [--snapshot-every N]
                      [--queue N] [--on-full block|shed-oldest] [--latency-budget-ms N]
                      [--jobs N] [--sync-every N] [--publish DIR] [--publish-interval-s F]
                      [--watchdog-s F] [--commit-throttle-ms N] [--shards N]
    busprobe send     --dir DIR --socket PATH [--stream-faults SPEC] [--limit N] [--from N]
                      [--timeout-s F]

`sim` is an alias for `simulate`. A fault SPEC is a preset (clean,
calibrated, extreme, scale:<factor>) plus optional key=value overrides,
e.g. `--faults calibrated,beep_drop=0.3,skew=120`. `demo` runs init,
simulate and ingest on a small region in a temporary directory.

`ingest --jobs N` shards the batch across N stage workers with a
deterministic sequence-numbered merge: the traffic map (and any GeoJSON
export) is bit-identical for every N, including 1 (the default, 0,
uses all cores).

`ingest --state DIR` makes the server durable: every commit appends one
CRC-framed record to a write-ahead log in DIR, `--snapshot-every N`
checkpoints a full-state snapshot every N records (0, the default, only
checkpoints when the run finishes), `--group-every N` amortises the WAL
into one group frame per N commits (1, the default, keeps the
one-frame-per-commit byte format; a batch ingest fsyncs only at
checkpoints and segment rotation), and an existing DIR is recovered
from — snapshot plus WAL replay — before ingesting, so repeated (or
crashed and resumed) ingests accumulate bit-identically to one
uninterrupted run. `--limit N` ingests only the first N uploads (crash
drills). `recover` rebuilds and prints the state read-only, attributing
any skipped/torn records, without ingesting anything.

A state DIR is a city of one or more regional shards, each with its own
matcher index, fusion state and WAL. One shard (the default) keeps its
WAL segments and snapshots at the root of DIR; `--shards N` (on
`ingest`, `serve` and `metrics`) with N >= 2 writes a `city.json`
manifest and one store per shard under `DIR/shard-NNNN/`, and routes
every upload to the region owning its best-matching stop; ambiguous
boundary trips follow the globally best candidate, whatever the shard
count. Every stateful command reads the shard count from DIR, so
`--shards` is only needed to create a city; one that disagrees with
what DIR holds is refused. The federated city map (and its GeoJSON) is
bit-identical at every shard count. With two or more shards the
commands also print a per-shard recovery and ingest table; the
conservation check (every routed upload accounted for by exactly one
shard) runs at every count. `city` builds a synthetic metropolis (tiled
calibrated districts, `--stops` sites and `--trips` rider uploads) and
ingests it through the same sharded monitor end to end.

`explain` replays the stored uploads with per-trip tracing on and
narrates one upload's full decision chain — sanitize verdict, match
candidates with scores and pruning, clustering, route mapping, fusion
deltas, and the commit/drop outcome with its attributed reason. TRIP-ID
is the commit sequence number (decimal) or the upload's content digest
(`0x`-prefixed hex); with no TRIP-ID, every upload's outcome is listed.
`trace` does the same replay and exports the traces: `--out FILE`
writes Chrome trace-event JSON (load in chrome://tracing or Perfetto;
spans nest under the stage timers, parallel traces carry a worker
track), `--jsonl FILE` writes one deterministic JSON trace per line.
`--sample-every N` keeps every Nth committed trip (drops and errors are
always kept; default 1 = keep everything). The JSONL bytes are
identical at every `--jobs` count.

`serve` runs the monitor as a resident process speaking one JSON object
per line over a unix socket (or stdin): uploads enter a bounded
admission queue (`--queue`, default 256) in front of the stage/commit
pipeline. When the queue is full, `--on-full` picks the policy: `block`
stalls the producer (backpressure, the default), `shed-oldest` evicts
the oldest queued upload. A
`--latency-budget-ms` sheds uploads that waited too long. Every shed,
oversized (a line over 1 MiB, an upload over 4096 samples) or
unparseable upload is attributed through the DropReason
counters and trace layer. With `--state DIR` commits are durable and
acknowledgements are withheld until fsync, so a producer that re-sends
its unacked tail after a crash loses nothing. One fsync covers at most
`--sync-every` commits (default 32): the commit loop syncs as soon as
the queue runs dry, so a lone upload is acked after one fsync and
groups grow towards the cap only under load. `--snapshot-every N`
checkpoints every N records, as in `ingest` — the only periodic
checkpoint; a `{\"cmd\":\"checkpoint\"}` line and the drain write one
too. `--publish DIR` republishes the federated `map.geojson` +
`metrics.prom` (atomic renames) every `--publish-interval-s` while
uploads commit and once more after drain, at every shard count. `--watchdog-s` fails fast
(exit 2) when the commit loop stalls; `--commit-throttle-ms` slows
every commit batch, to provoke that in drills. SIGTERM/SIGINT (or a
`{\"cmd\":\"shutdown\"}` line) drains gracefully: stop admission, flush
the queue, release final acks, write a last checkpoint, exit 0.
`ingest --state` traps SIGINT the same way: it finishes the in-flight
chunk, checkpoints, and exits cleanly.

`send` is the matching producer: it streams the stored corpus at a
serve socket, one upload per line with `id` = corpus index, and waits
until every upload is acked or attributed to a drop. `--stream-faults`
perturbs delivery (presets smooth, bursty, flaky; keys burst, pause_ms,
disconnect_every) — after a disconnect it re-dials and re-sends
whatever was never acked, which is exactly the crash-recovery contract.

Performance is measured by `benchmark/run.sh`, not by this binary.
";
