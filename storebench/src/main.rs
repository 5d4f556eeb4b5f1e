//! `storebench` — end-to-end benchmark of the durable, 4-shard
//! `ShardedSfcStore`.
//!
//! ```text
//! storebench --workload <ingest|query_z|query_hilbert> --seed <n>
//!            --seconds <s> --trace <0|1> [--small]
//! ```
//!
//! One client thread runs a seeded closed loop of writes, batches, box,
//! kNN and get queries and snapshots against a store opened with
//! `open_durable` in `.storebench/` under the working directory, checks
//! every output against the benchmark's own model, and prints, as the
//! last line of standard output, one JSON object with the run's
//! end-to-end metrics (`--trace 0`) or its per-layer metrics
//! (`--trace 1`, which also writes the spans to
//! `.storebench/trace-<workload>-<seed>.json`). See `README.md`.

mod model;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use sfc_core::{HilbertCurve, Point, SpaceFillingCurve, ZCurve};
use sfc_index::BoxRegion;
use sfc_partition::Partition;
use sfc_store::memtable::SfcMemtable;
use sfc_store::{
    BatchOp, LevelStrategy, ShardedSfcStore, ShardedSnapshot, StoreEntry, WalConfig,
    INTERVAL_VOLUME_CUTOFF,
};

use model::{Check, Model};
use trace::{EndState, Tracer};
use workload::{
    CurveKind, Generator, Kind, Op, Population, Spec, KNN_K, KNN_WINDOW, LOAD_BATCH, SHARDS,
};

type Store<C> = ShardedSfcStore<2, u64, C>;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Reopens of the closed store per run; `recovery_s` is their median.
const REOPENS: usize = 5;
/// Where the store and the trace files live, under the working directory.
const WORK_DIR: &str = ".storebench";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    small: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut small) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        if flag == "--small" {
            small = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"want 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"want 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
        small,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("storebench: {e}");
            eprintln!(
                "usage: storebench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--small]"
            );
            return ExitCode::from(2);
        }
    };
    let specs = workload::specs();
    let Some(spec) = specs.iter().find(|s| s.name == args.workload) else {
        let names: Vec<_> = specs.iter().map(|s| s.name).collect();
        eprintln!(
            "storebench: unknown workload {:?}; one of {names:?}",
            args.workload
        );
        return ExitCode::from(2);
    };
    let spec = if args.small {
        spec.small()
    } else {
        spec.clone()
    };
    let work = PathBuf::from(WORK_DIR);
    let dir = work.join(format!(
        "{}-{}-{}",
        spec.name,
        args.seed,
        std::process::id()
    ));
    let result = match spec.curve {
        CurveKind::Z => run(
            &spec,
            ZCurve::<2>::new(workload::ORDER).expect("order 11 is valid"),
            &dir,
            &args,
        ),
        CurveKind::Hilbert => run(
            &spec,
            HilbertCurve::<2>::new(workload::ORDER).expect("order 11 is valid"),
            &dir,
            &args,
        ),
    };
    let _ = std::fs::remove_dir_all(&dir);
    match result {
        Ok(report) => {
            if let Some(trace) = &report.trace_file {
                let path = work.join(format!("trace-{}-{}.json", spec.name, args.seed));
                if let Err(e) = std::fs::write(&path, trace) {
                    eprintln!("storebench: writing {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                println!("trace written to {}", path.display());
            }
            print!("{}", report.text);
            println!("{}", report.json);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("storebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Quantile of unsorted ns samples, interpolated linearly between the
/// two nearest order statistics; 0 if empty.
fn quantile(v: &[u64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_unstable();
    let pos = q * (s.len() - 1) as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    let hi = (lo + 1).min(s.len() - 1);
    s[lo] as f64 + frac * (s[hi] as f64 - s[lo] as f64)
}

/// Samples per block of the tail estimate.
const TAIL_BLOCK: usize = 1000;

/// The p99 of consecutive blocks of [`TAIL_BLOCK`] samples (the last block
/// takes the remainder), median across blocks: each block's p99 has at
/// least ten samples beyond it, and a burst confined to one block does
/// not move the result.
fn tail_p99(v: &[u64]) -> f64 {
    let blocks = (v.len() / TAIL_BLOCK).max(1);
    let mut p99: Vec<u64> = (0..blocks)
        .map(|i| {
            let end = if i + 1 == blocks {
                v.len()
            } else {
                (i + 1) * TAIL_BLOCK
            };
            quantile(&v[i * TAIL_BLOCK..end], 0.99) as u64
        })
        .collect();
    p99.sort_unstable();
    let mid = p99.len() / 2;
    if p99.len() % 2 == 1 {
        p99[mid] as f64
    } else {
        (p99[mid - 1] + p99[mid]) as f64 / 2.0
    }
}

extern "C" {
    // From the C library every Rust program on Linux links against.
    fn clock_gettime(clock: i32, tp: *mut [i64; 2]) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` and `CLOCK_THREAD_CPUTIME_ID` of Linux.
const CLOCK_PROCESS_CPUTIME: i32 = 2;
const CLOCK_THREAD_CPUTIME: i32 = 3;

/// CPU time in ns consumed by this process (all threads) or by the
/// calling thread. The kernel charges neither the time a thread waits
/// nor the time the hypervisor steals from its vCPU.
fn cpu_ns(clock: i32) -> u64 {
    let mut ts = [0i64; 2];
    // SAFETY: `ts` has the layout of the 64-bit `struct timespec`, and
    // both clocks exist on every Linux since 2.6.12.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts[0] as u64 * 1_000_000_000 + ts[1] as u64
}

fn median_secs(v: &[Duration]) -> f64 {
    let ns: Vec<u64> = v.iter().map(|d| d.as_nanos() as u64).collect();
    quantile(&ns, 0.5) / 1e9
}

/// Runs `f`, turning a panic inside the store into an error, so a
/// failing operation counts as failed instead of ending the run.
fn guard<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".into())
    })
}

/// Jiffies of the machine's `cpu` line in `/proc/stat`: (steal, total).
fn cpu_steal() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = line
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// `wchar` of `/proc/self/io`: bytes this process passed to write calls.
fn wchar() -> u64 {
    proc_field("/proc/self/io", "wchar:")
}

/// Peak resident set (`VmHWM` of `/proc/self/status`) in MiB.
fn peak_rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM:") as f64 / 1024.0
}

fn proc_field(path: &str, key: &str) -> u64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.trim().trim_end_matches(" kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Attempts, failures and latencies of one operation kind.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Wall-clock time of each timed call.
    latency_ns: Vec<u64>,
    /// CPU time the client thread spent in each timed call.
    cpu_ns: Vec<u64>,
}

/// Wall-clock and client-thread CPU time since a start.
#[derive(Debug, Clone, Copy)]
struct Stopwatch {
    wall: Instant,
    cpu: u64,
}

/// What one operation took: the timed call, and everything spent inside
/// the store for it (a snapshot also answers a box on itself).
#[derive(Debug, Clone, Copy, Default)]
struct Spent {
    wall: Duration,
    /// `None` for a traced operation: a traced run measures no CPU time.
    cpu: Option<u64>,
    in_op_wall: Duration,
    in_op_cpu: u64,
}

impl Spent {
    /// A traced operation's times.
    fn wall(wall: Duration, in_op_wall: Duration) -> Self {
        Spent {
            wall,
            in_op_wall,
            ..Spent::default()
        }
    }
}

impl Stopwatch {
    fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu: cpu_ns(CLOCK_THREAD_CPUTIME),
        }
    }

    fn read(&self) -> (Duration, u64) {
        let cpu = cpu_ns(CLOCK_THREAD_CPUTIME);
        (self.wall.elapsed(), cpu - self.cpu)
    }

    /// The call and the store work are one and the same.
    fn call(&self) -> Spent {
        let (wall, cpu) = self.read();
        Spent {
            wall,
            cpu: Some(cpu),
            in_op_wall: wall,
            in_op_cpu: cpu,
        }
    }
}

struct Report {
    text: String,
    json: String,
    trace_file: Option<String>,
}

/// The client: the store, the model, and what the timed phase records.
struct Client<'a, C: SpaceFillingCurve<2> + Clone> {
    store: Store<C>,
    curve: C,
    spec: &'a Spec,
    model: Model,
    tally: [Tally; 6],
    /// Set while the timed phase runs; warm-up operations are checked
    /// and counted but not timed.
    timing: bool,
    /// Wrong outputs (as opposed to operations that returned an error).
    wrong: u64,
    first_error: Option<String>,
    /// Wall-clock and client-thread CPU time spent inside the store.
    in_op: Duration,
    in_op_cpu: u64,
    records_written: u64,
    /// The traced run's shadow memtable: every written record is also
    /// inserted here, and it is cleared as the store's memtables would be.
    mirror: SfcMemtable<Option<u64>>,
}

impl<'a, C> Client<'a, C>
where
    C: SpaceFillingCurve<2> + Clone + Send + Sync + 'static,
{
    /// Records one operation: `Err` means the call failed (a `WalError`
    /// or a panic inside the store), `Ok(Err)` a wrong output.
    fn settle(&mut self, kind: Kind, outcome: Result<Check, String>, spent: Spent) {
        let t = &mut self.tally[kind.index()];
        t.attempted += 1;
        if self.timing {
            t.latency_ns.push(spent.wall.as_nanos() as u64);
            t.cpu_ns.extend(spent.cpu);
            self.in_op += spent.in_op_wall;
            self.in_op_cpu += spent.in_op_cpu;
        }
        let failure = match outcome {
            Ok(Ok(())) => return,
            Ok(Err(e)) => {
                self.wrong += 1;
                e
            }
            Err(e) => e,
        };
        t.failed += 1;
        self.first_error.get_or_insert(failure);
    }

    /// Applies a write to the model: on an error the write is applied
    /// but not acknowledged, and the operation counts as failed.
    fn wrote(&mut self, op: &Op, result: Result<(), String>) -> Result<Check, String> {
        match op {
            Op::Insert(p, v) => self.model.insert(*p, *v),
            Op::Delete(p) => self.model.delete(*p),
            Op::Batch(ops) => self.model.apply_batch(ops),
            _ => unreachable!("not a write"),
        }
        result.map(Ok)
    }

    /// Runs one operation untraced: one timed call, then the check.
    fn plain(&mut self, op: &Op) {
        let store = &self.store;
        let watch = Stopwatch::start();
        match op {
            Op::Insert(..) | Op::Delete(_) | Op::Batch(_) => {
                let r = guard(|| match op {
                    Op::Insert(p, v) => store.try_insert(*p, *v).map(drop),
                    Op::Delete(p) => store.try_delete(*p).map(drop),
                    Op::Batch(ops) => store.try_apply_batch(ops),
                    _ => unreachable!(),
                });
                let spent = watch.call();
                let outcome = self.wrote(op, flatten(r));
                self.settle(op.kind(), outcome, spent);
            }
            Op::Box(b) => {
                let r = guard(|| store.query_box(b));
                let spent = watch.call();
                let outcome = r.map(|(hits, _)| self.model.check_box(b, entries(&hits)));
                self.settle(Kind::Box, outcome, spent);
            }
            Op::Knn(q) => {
                let r = guard(|| store.knn(*q, KNN_K, KNN_WINDOW));
                let spent = watch.call();
                let outcome = r.map(|(hits, _)| self.model.check_knn(*q, KNN_K, entries(&hits)));
                self.settle(Kind::Knn, outcome, spent);
            }
            Op::Get(p) => {
                let r = guard(|| store.get(*p));
                let spent = watch.call();
                let outcome = r.map(|got| self.model.check_get(*p, got));
                self.settle(Kind::Get, outcome, spent);
            }
            Op::Snapshot(b) => {
                let snap = guard(|| store.snapshot());
                let (wall, cpu) = watch.read();
                let hits = snap.and_then(|s| guard(|| snapshot_box(&s, b)));
                let (in_op_wall, in_op_cpu) = watch.read();
                let outcome = hits.map(|h| self.model.check_box(b, h.iter().map(|(p, v)| (*p, v))));
                let spent = Spent {
                    wall,
                    cpu: Some(cpu),
                    in_op_wall,
                    in_op_cpu,
                };
                self.settle(Kind::Snapshot, outcome, spent);
            }
        }
    }

    /// Runs one operation traced: the same calls as [`plain`](Self::plain)
    /// inside spans, writes split into apply (`*_nosync`) and ack
    /// (`sync`), plus shadow calls into the layers below the store.
    fn traced(&mut self, op: &Op, id: u64, tr: &mut Tracer, route: &Partition) {
        let start = Instant::now();
        match op {
            Op::Insert(..) | Op::Delete(_) | Op::Batch(_) => {
                let kind = op.kind();
                let os = tr.open(
                    id,
                    if kind == Kind::Write {
                        "op.write"
                    } else {
                        "op.batch"
                    },
                );
                let points: Vec<Point<2>> = match op {
                    Op::Insert(p, _) | Op::Delete(p) => vec![*p],
                    Op::Batch(ops) => ops.iter().map(|o| *o.point()).collect(),
                    _ => unreachable!(),
                };
                let n = points.len() as u64;
                let mut keys = Vec::with_capacity(points.len());
                let ((), enc) = tr.span(os, "core.encode", || {
                    self.curve.index_of_batch(&points, &mut keys)
                });
                let (_, rt) = tr.span(os, "partition.route", || {
                    keys.iter().map(|&k| route.part_of(k)).sum::<usize>()
                });
                if self.mirror.len() >= self.spec.memtable * SHARDS {
                    self.mirror.clear();
                }
                let mirror = &mut self.mirror;
                let ((), mem) = tr.span(os, "memtable.insert", || match op {
                    Op::Insert(_, v) => {
                        mirror.insert(keys[0], Some(*v));
                    }
                    Op::Delete(_) => {
                        mirror.insert(keys[0], None);
                    }
                    Op::Batch(ops) => {
                        for (k, o) in keys.iter().zip(ops) {
                            mirror.insert(
                                *k,
                                match o {
                                    BatchOp::Insert(_, v) => Some(*v),
                                    BatchOp::Delete(_) => None,
                                },
                            );
                        }
                    }
                    _ => unreachable!(),
                });
                tr.encode_ns.add_n(enc as f64, n);
                tr.route_ns.add_n(rt as f64, n);
                tr.memtable_insert_ns.add_n(mem as f64, n);
                let runs_before = self.store.shard_run_lens();
                let entries_before: usize = self.store.shard_memtable_lens().iter().sum();
                let io_before = wchar();
                let store = &self.store;
                let (r, apply) = tr.span(os, "store.apply", || {
                    guard(|| match op {
                        Op::Insert(p, v) => {
                            store.insert_nosync(*p, *v);
                        }
                        Op::Delete(p) => {
                            store.delete_nosync(*p);
                        }
                        Op::Batch(ops) => store.apply_batch_nosync(ops),
                        _ => unreachable!(),
                    })
                });
                let (ack_r, ack) = tr.span(os, "store.ack", || guard(|| store.sync()));
                tr.close(os);
                let lat = start.elapsed();
                if store.shard_run_lens() != runs_before {
                    tr.flush_stall_ns.push(apply + ack);
                    tr.flush_bytes.add_n(
                        wchar().saturating_sub(io_before) as f64,
                        entries_before as u64 + n,
                    );
                }
                if kind == Kind::Write {
                    tr.write_apply_ns.push(apply);
                    tr.write_ack_ns.push(ack);
                    tr.write_residual_ns
                        .push(apply as f64 - (enc + rt + mem) as f64);
                } else {
                    tr.batch_apply_ns.push(apply);
                    tr.batch_ack_ns.push(ack);
                }
                let outcome = self.wrote(op, r.and_then(|()| flatten(ack_r)));
                self.settle(kind, outcome, Spent::wall(lat, lat));
            }
            Op::Box(b) => {
                let os = tr.open(id, "op.box");
                let store = &self.store;
                self.sample_memtables(tr, false);
                let (plans, plan) = tr.span(os, "store.plan", || store.plan_box_query(b));
                let (levels, bigmin) = plans.iter().fold((0u64, 0u64), |(l, g), p| {
                    let all = p.memtable.iter().chain(&p.runs);
                    let n = all.clone().count() as u64;
                    let big = all.filter(|s| **s == LevelStrategy::Bigmin).count() as u64;
                    (l + n, g + big)
                });
                tr.bigmin_levels.add_n(bigmin as f64, levels);
                tr.plan_us.add(plan as f64 / 1e3);
                let curve = &self.curve;
                let (iv, dec) = tr.span(os, "index.decompose", || b.curve_intervals(curve));
                tr.decompose_us.add(dec as f64 / 1e3);
                tr.intervals.add(iv.len() as f64);
                let (r, q) = tr.span(os, "store.query_box", || guard(|| store.query_box(b)));
                tr.close(os);
                let decomposes =
                    curve.as_morton().is_none() || b.volume() <= INTERVAL_VOLUME_CUTOFF;
                let rest = if decomposes { q.saturating_sub(dec) } else { q };
                tr.box_rest_us.add(rest as f64 / 1e3);
                if let Ok((_, stats)) = &r {
                    tr.box_stats.add(stats);
                }
                let in_op = start.elapsed();
                let outcome = r.map(|(hits, _)| self.model.check_box(b, entries(&hits)));
                self.settle(
                    Kind::Box,
                    outcome,
                    Spent::wall(Duration::from_nanos(q), in_op),
                );
            }
            Op::Knn(qp) => {
                let os = tr.open(id, "op.knn");
                self.sample_memtables(tr, true);
                let store = &self.store;
                let (r, q) = tr.span(os, "store.knn", || {
                    guard(|| store.knn(*qp, KNN_K, KNN_WINDOW))
                });
                tr.close(os);
                if let Ok((_, stats)) = &r {
                    tr.knn_stats.add(stats);
                }
                let in_op = start.elapsed();
                let outcome = r.map(|(hits, _)| self.model.check_knn(*qp, KNN_K, entries(&hits)));
                self.settle(
                    Kind::Knn,
                    outcome,
                    Spent::wall(Duration::from_nanos(q), in_op),
                );
            }
            Op::Get(p) => {
                let os = tr.open(id, "op.get");
                let store = &self.store;
                let (r, q) = tr.span(os, "store.get", || guard(|| store.get(*p)));
                tr.close(os);
                let in_op = start.elapsed();
                let outcome = r.map(|got| self.model.check_get(*p, got));
                self.settle(
                    Kind::Get,
                    outcome,
                    Spent::wall(Duration::from_nanos(q), in_op),
                );
            }
            Op::Snapshot(b) => {
                let os = tr.open(id, "op.snapshot");
                let store = &self.store;
                let entries: usize = store.shard_memtable_lens().iter().sum();
                tr.snapshot_flushed.add(entries as f64);
                self.mirror.clear();
                let (snap, s) = tr.span(os, "store.snapshot", || guard(|| store.snapshot()));
                let (hits, _) = tr.span(os, "snapshot.query_box", || {
                    snap.and_then(|s| guard(|| snapshot_box(&s, b)))
                });
                tr.close(os);
                let in_op = start.elapsed();
                let outcome = hits.map(|h| self.model.check_box(b, h.iter().map(|(p, v)| (*p, v))));
                self.settle(
                    Kind::Snapshot,
                    outcome,
                    Spent::wall(Duration::from_nanos(s), in_op),
                );
            }
        }
    }

    fn sample_memtables(&self, tr: &mut Tracer, knn: bool) {
        let entries: usize = self.store.shard_memtable_lens().iter().sum();
        let heap: usize = self.store.shard_memtable_heap_bytes().iter().sum();
        if knn {
            tr.entries_at_knn.add(entries as f64);
        } else {
            tr.entries_at_box.add(entries as f64);
        }
        tr.heap_bytes.add(heap as f64);
    }
}

/// A store result as the `(point, payload)` pairs the model checks.
fn entries(hits: &[StoreEntry<2, u64>]) -> impl Iterator<Item = (Point<2>, &u64)> {
    hits.iter().map(|e| (e.point, &e.payload))
}

/// Answers a box on a snapshot, as owned `(point, payload)` pairs.
fn snapshot_box<C: SpaceFillingCurve<2> + Clone>(
    snap: &ShardedSnapshot<2, u64, C>,
    b: &BoxRegion<2>,
) -> Vec<(Point<2>, u64)> {
    snap.query_box(b)
        .0
        .iter()
        .map(|e| (e.point, *e.payload))
        .collect()
}

/// Folds a store call's panic and its `WalError` into one error.
fn flatten<T>(r: Result<Result<T, sfc_store::WalError>, String>) -> Result<(), String> {
    match r {
        Ok(Ok(_)) => Ok(()),
        Ok(Err(e)) => Err(format!("wal error: {e}")),
        Err(p) => Err(format!("panic: {p}")),
    }
}

fn run<C>(spec: &Spec, curve: C, dir: &Path, args: &Args) -> Result<Report, String>
where
    C: SpaceFillingCurve<2> + Clone + Send + Sync + 'static,
{
    let open = || {
        Store::open_durable(curve.clone(), SHARDS, spec.memtable, WalConfig::new(dir))
            .map_err(|e| format!("open_durable: {e}"))
    };
    let pop = Population::new(spec, args.seed);
    let load = pop.load();
    let mut model = Model::default();
    model.apply_batch(&load);

    // Set-up: open a fresh directory and load the base through acked
    // batches, several times; the last store is the one the run uses.
    let mut setup = Vec::with_capacity(SETUPS);
    let mut store = None;
    for _ in 0..SETUPS {
        drop(store.take());
        let _ = std::fs::remove_dir_all(dir);
        let t = Instant::now();
        let s = open()?;
        for chunk in load.chunks(LOAD_BATCH) {
            s.try_apply_batch(chunk)
                .map_err(|e| format!("loading the base: {e}"))?;
        }
        setup.push(t.elapsed());
        store = Some(s);
    }
    drop(load);

    let mut gen = Generator::new(spec, &pop, args.seed);
    let mut client = Client {
        store: store.expect("at least one set-up"),
        curve: curve.clone(),
        spec,
        model,
        tally: Default::default(),
        timing: false,
        wrong: 0,
        first_error: None,
        in_op: Duration::ZERO,
        in_op_cpu: 0,
        records_written: 0,
        mirror: SfcMemtable::new(),
    };
    for _ in 0..spec.warmup_rounds {
        for op in gen.round() {
            client.plain(&op);
        }
    }

    // Timed phase: whole rounds until the time is up. A traced run
    // alternates traced and untraced rounds, which gives its overhead.
    let metrics = args.trace.then(|| client.store.enable_metrics());
    let route = client.store.partition();
    let mut tracer = args.trace.then(Tracer::default);
    client.timing = true;
    let io_start = wchar();
    let steal_start = cpu_steal();
    let cpu_start = (cpu_ns(CLOCK_PROCESS_CPUTIME), cpu_ns(CLOCK_THREAD_CPUTIME));
    let t0 = Instant::now();
    let (mut rounds, mut op_id) = (0u64, 0u64);
    // The store's footprint, sampled before every round: the LSM's size
    // follows its compaction cycle, so one sample at the end would depend
    // on where in that cycle the run stopped.
    let mut disk_sum = 0u64;
    while rounds == 0 || t0.elapsed().as_secs_f64() < args.seconds {
        disk_sum += dir_bytes(dir);
        let traced_round = rounds % 2 == 0;
        for op in gen.round() {
            client.records_written += op.records_written() as u64;
            let before = client.in_op;
            match tracer.as_mut() {
                Some(tr) if traced_round => {
                    client.traced(&op, op_id, tr, &route);
                    tr.traced.0 += (client.in_op - before).as_secs_f64();
                    tr.traced.1 += 1;
                }
                Some(tr) => {
                    client.plain(&op);
                    tr.untraced.0 += (client.in_op - before).as_secs_f64();
                    tr.untraced.1 += 1;
                }
                None => client.plain(&op),
            }
            op_id += 1;
        }
        rounds += 1;
    }
    let timed = t0.elapsed();
    // The store's CPU time: the whole process's, less the time the client
    // thread spent outside store calls (generating inputs and checking).
    let client_cpu = cpu_ns(CLOCK_THREAD_CPUTIME) - cpu_start.1;
    let store_cpu = (cpu_ns(CLOCK_PROCESS_CPUTIME) - cpu_start.0)
        .saturating_sub(client_cpu.saturating_sub(client.in_op_cpu));
    let io_bytes = wchar().saturating_sub(io_start);
    let steal_end = cpu_steal();
    let steal_pct = 100.0 * steal_end.0.saturating_sub(steal_start.0) as f64
        / steal_end.1.saturating_sub(steal_start.1).max(1) as f64;
    let disk = disk_sum as f64 / rounds as f64;
    let rss = peak_rss_mib();
    let mut end = EndState {
        runs: client.store.shard_run_lens().iter().map(Vec::len).sum(),
        ..EndState::default()
    };
    if let Some(m) = &metrics {
        let snap = m.registry().snapshot();
        end.wal_groups = snap.counter("wal.groups").unwrap_or(0);
        end.wal_records = snap.counter("wal.records").unwrap_or(0);
        end.wal_bytes = snap.counter("wal.bytes").unwrap_or(0);
        end.wal_fsync_ns_p50 = snap.histogram("wal.fsync.ns").map_or(0, |h| h.p50());
        end.wal_append_ns_p50 = snap.histogram("wal.append.ns").map_or(0, |h| h.p50());
    }

    // Major compaction, so every run closes the same LSM shape whatever
    // the number of rounds it managed, then a few untimed batches that the
    // reopen replays from the WAL; then a clean close and timed reopens,
    // the first of which is checked.
    client.timing = false;
    let compacted = flatten(guard(|| client.store.try_compact()))
        .map_err(|e| format!("compaction before the close: {e}"));
    for op in gen.tail() {
        client.plain(&op);
    }
    let Client {
        store,
        model,
        tally,
        wrong,
        mut first_error,
        in_op,
        records_written,
        ..
    } = client;
    let mut reopen_check: Check = compacted;
    drop(store);
    let mut reopen = Vec::with_capacity(REOPENS);
    for i in 0..REOPENS {
        let t = Instant::now();
        let s = open();
        let elapsed = t.elapsed();
        let s = match s {
            Ok(s) => s,
            Err(e) => {
                reopen_check = Err(e);
                break;
            }
        };
        reopen.push(elapsed);
        if i == 0 {
            let stats = s.recovery_stats().cloned().unwrap_or_default();
            end.replayed_records = stats.replayed_records;
            end.runs_loaded = stats.runs_loaded;
            end.recovery_wal_bytes = stats.wal_bytes;
            end.replay_threads = stats.replay_threads;
            end.shard_max_ms = stats
                .shards
                .iter()
                .map(|sh| sh.elapsed.as_secs_f64() * 1e3)
                .fold(0.0, f64::max);
            let entries: Vec<StoreEntry<2, u64>> = s.iter().collect();
            reopen_check = reopen_check
                .and_then(|()| model.check_all(entries.iter().map(|e| (e.point, &e.payload))))
                .and_then(|()| match stats.torn_tail_bytes {
                    0 => Ok(()),
                    n => Err(format!(
                        "reopen discarded a {n}-byte torn tail after a clean close"
                    )),
                });
        }
    }
    if let Err(e) = &reopen_check {
        first_error.get_or_insert(e.clone());
    }

    // The report.
    let reopen_failed = u64::from(reopen_check.is_err());
    let attempted = tally.iter().map(|t| t.attempted).sum::<u64>() + 1;
    let failed = tally.iter().map(|t| t.failed).sum::<u64>() + reopen_failed;
    let correct = wrong == 0 && reopen_failed == 0;
    let timed_ops: usize = tally.iter().map(|t| t.latency_ns.len()).sum();
    let mut text = String::new();
    let _ = writeln!(
        text,
        "storebench workload={} seed={} seconds={} trace={} small={} rounds={rounds} timed_wall_s={:.3} in_op_s={:.3} store_cpu_s={:.3} wall_throughput_ops_s={:.1} live={} written={records_written} machine_steal_pct={steal_pct:.1}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.small,
        timed.as_secs_f64(),
        in_op.as_secs_f64(),
        store_cpu as f64 / 1e9,
        timed_ops as f64 / in_op.as_secs_f64().max(1e-9),
        model.len(),
    );
    let _ = writeln!(
        text,
        "{:<9} {:>9} {:>7} {:>7} {:>10} {:>10} {:>10} {:>10}",
        "kind",
        "attempted",
        "failed",
        "timed",
        "cpu_p50_us",
        "cpu_p99_us",
        "wall_p50_us",
        "wall_p99_us"
    );
    for k in Kind::ALL {
        let t = &tally[k.index()];
        let _ = writeln!(
            text,
            "{:<9} {:>9} {:>7} {:>7} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            k.name(),
            t.attempted,
            t.failed,
            t.latency_ns.len(),
            quantile(&t.cpu_ns, 0.5) / 1e3,
            tail_p99(&t.cpu_ns) / 1e3,
            quantile(&t.latency_ns, 0.5) / 1e3,
            tail_p99(&t.latency_ns) / 1e3,
        );
    }
    let _ = writeln!(text, "{:<9} {:>9} {:>7}", "reopen", 1, reopen_failed);
    if let Some(e) = &first_error {
        let _ = writeln!(text, "first failure: {e}");
    }

    let p50 = |k: Kind| quantile(&tally[k.index()].cpu_ns, 0.5) / 1e3;
    let p99 = |k: Kind| tail_p99(&tally[k.index()].cpu_ns) / 1e3;
    let metrics: Vec<(&str, &str, f64)> = match &tracer {
        None => vec![
            ("setup_s", "s", median_secs(&setup)),
            (
                "cpu_us_per_op",
                "us",
                store_cpu as f64 / 1e3 / timed_ops.max(1) as f64,
            ),
            ("batch_cpu_p50_us", "us", p50(Kind::Batch)),
            ("box_cpu_p50_us", "us", p50(Kind::Box)),
            ("box_cpu_p99_us", "us", p99(Kind::Box)),
            ("knn_cpu_p50_us", "us", p50(Kind::Knn)),
            ("knn_cpu_p99_us", "us", p99(Kind::Knn)),
            ("get_cpu_p50_us", "us", p50(Kind::Get)),
            ("snapshot_cpu_p50_us", "us", p50(Kind::Snapshot)),
            ("recovery_s", "s", median_secs(&reopen)),
            (
                "disk_bytes_per_record",
                "B/record",
                disk / model.len().max(1) as f64,
            ),
            (
                "write_bytes_per_record",
                "B/record",
                io_bytes as f64 / records_written.max(1) as f64,
            ),
            ("peak_rss_mib", "MiB", rss),
        ],
        Some(tr) => tr.metrics(&end),
    };
    let mut json_metrics = String::from("{");
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json_metrics,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json_metrics.push('}');
    let json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {json_metrics}}}"
    );
    let trace_file = tracer.as_ref().map(|tr| {
        let header = format!(
            "\"workload\":\"{}\",\"seed\":{},\"rounds\":{rounds}",
            spec.name, args.seed
        );
        tr.render(&header, &json_metrics)
    });
    Ok(Report {
        text,
        json,
        trace_file,
    })
}
