//! The traced run: spans around the calls the benchmark makes into each
//! layer's public functions, the counts read from values those calls
//! return, and the trace file written when the run ends.
//!
//! Spans are kept in memory: name, start and end (ns since the run's
//! trace clock started), the span that caused them and the operation
//! they belong to.

use std::fmt::Write as _;
use std::time::Instant;

use sfc_index::QueryStats;

/// Parent of an operation's own span.
pub const NO_PARENT: usize = usize::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-query work counters summed over the traced queries of one kind.
#[derive(Debug, Default, Clone, Copy)]
pub struct StatSums {
    pub queries: u64,
    pub seeks: u64,
    pub scanned: u64,
    pub reported: u64,
    pub blocks_pruned: u64,
    pub blocks_decoded: u64,
}

impl StatSums {
    pub fn add(&mut self, s: &QueryStats) {
        self.queries += 1;
        self.seeks += s.seeks;
        self.scanned += s.scanned;
        self.reported += s.reported;
        self.blocks_pruned += s.blocks_pruned;
        self.blocks_decoded += s.blocks_decoded;
    }

    fn per_query(&self, v: u64) -> f64 {
        v as f64 / self.queries.max(1) as f64
    }
}

/// A sum and a count, reported as their mean.
#[derive(Debug, Default, Clone, Copy)]
pub struct Mean {
    pub sum: f64,
    pub n: u64,
}

impl Mean {
    pub fn add(&mut self, v: f64) {
        self.sum += v;
        self.n += 1;
    }

    pub fn add_n(&mut self, v: f64, n: u64) {
        self.sum += v;
        self.n += n;
    }

    pub fn get(&self) -> f64 {
        self.sum / self.n.max(1) as f64
    }
}

/// The trace clock: spans are stamped in ns since it started.
#[derive(Debug)]
struct Clock(Instant);

impl Default for Clock {
    fn default() -> Self {
        Clock(Instant::now())
    }
}

/// Everything the traced rounds record.
#[derive(Debug, Default)]
pub struct Tracer {
    clock: Clock,
    pub spans: Vec<Span>,
    pub encode_ns: Mean,
    pub route_ns: Mean,
    pub memtable_insert_ns: Mean,
    pub decompose_us: Mean,
    pub intervals: Mean,
    pub box_stats: StatSums,
    pub knn_stats: StatSums,
    pub plan_us: Mean,
    pub bigmin_levels: Mean,
    pub box_rest_us: Mean,
    pub entries_at_knn: Mean,
    pub entries_at_box: Mean,
    pub heap_bytes: Mean,
    pub write_apply_ns: Vec<u64>,
    pub write_ack_ns: Vec<u64>,
    pub batch_apply_ns: Vec<u64>,
    pub batch_ack_ns: Vec<u64>,
    pub write_residual_ns: Vec<f64>,
    pub flush_stall_ns: Vec<u64>,
    pub flush_bytes: Mean,
    pub snapshot_flushed: Mean,
    /// In-op seconds and operations of the traced and the untraced
    /// rounds, for the overhead.
    pub traced: (f64, u64),
    pub untraced: (f64, u64),
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.clock.0.elapsed().as_nanos() as u64
    }

    /// Opens an operation's span; close it with [`close`](Self::close).
    pub fn open(&mut self, op: u64, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: NO_PARENT,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a child span of `parent`; returns its result and
    /// the span's length in ns.
    pub fn span<R>(
        &mut self,
        parent: usize,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let start_ns = self.now_ns();
        let r = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.spans[parent].op,
            parent,
            start_ns,
            end_ns,
        });
        (r, end_ns - start_ns)
    }

    /// The per-layer metrics, by name, with their units.
    pub fn metrics(&self, end: &EndState) -> Vec<(&'static str, &'static str, f64)> {
        let p50 = |v: &[u64]| crate::quantile(v, 0.5) / 1e3;
        let residual = {
            let mut r = self.write_residual_ns.clone();
            r.sort_by(f64::total_cmp);
            r.get(r.len() / 2).copied().unwrap_or(0.0) / 1e3
        };
        let tput = |(secs, ops): (f64, u64)| ops as f64 / secs.max(1e-9);
        let b = &self.box_stats;
        let k = &self.knn_stats;
        vec![
            ("core.encode_ns_per_point", "ns", self.encode_ns.get()),
            ("partition.route_ns_per_key", "ns", self.route_ns.get()),
            ("index.decompose_us_per_box", "us", self.decompose_us.get()),
            ("index.intervals_per_box", "count", self.intervals.get()),
            ("box.seeks", "count", b.per_query(b.seeks)),
            (
                "box.scanned_per_reported",
                "ratio",
                b.scanned as f64 / b.reported.max(1) as f64,
            ),
            ("box.blocks_decoded", "count", b.per_query(b.blocks_decoded)),
            (
                "box.blocks_pruned_share",
                "ratio",
                b.blocks_pruned as f64 / (b.blocks_pruned + b.blocks_decoded).max(1) as f64,
            ),
            ("knn.seeks", "count", k.per_query(k.seeks)),
            (
                "knn.scanned_per_reported",
                "ratio",
                k.scanned as f64 / k.reported.max(1) as f64,
            ),
            ("knn.blocks_decoded", "count", k.per_query(k.blocks_decoded)),
            ("store.plan_us_per_box", "us", self.plan_us.get()),
            (
                "store.bigmin_level_share",
                "ratio",
                self.bigmin_levels.get(),
            ),
            ("store.box_rest_us", "us", self.box_rest_us.get()),
            (
                "memtable.entries_at_knn",
                "count",
                self.entries_at_knn.get(),
            ),
            (
                "memtable.entries_at_box",
                "count",
                self.entries_at_box.get(),
            ),
            ("memtable.heap_bytes", "B", self.heap_bytes.get()),
            (
                "memtable.insert_ns_per_record",
                "ns",
                self.memtable_insert_ns.get(),
            ),
            ("write.apply_us_p50", "us", p50(&self.write_apply_ns)),
            ("write.ack_us_p50", "us", p50(&self.write_ack_ns)),
            (
                "write.ack_us_p99",
                "us",
                crate::tail_p99(&self.write_ack_ns) / 1e3,
            ),
            ("batch.apply_us_p50", "us", p50(&self.batch_apply_ns)),
            ("batch.ack_us_p50", "us", p50(&self.batch_ack_ns)),
            ("write.residual_us", "us", residual),
            ("flush.count", "count", self.flush_stall_ns.len() as f64),
            ("flush.stall_us_p50", "us", p50(&self.flush_stall_ns)),
            (
                "flush.bytes_written_per_record",
                "B/record",
                self.flush_bytes.get(),
            ),
            ("lsm.runs_end", "count", end.runs as f64),
            ("wal.groups", "count", end.wal_groups as f64),
            (
                "wal.records_per_group",
                "count",
                end.wal_records as f64 / end.wal_groups.max(1) as f64,
            ),
            ("wal.fsync_ns_p50", "ns", end.wal_fsync_ns_p50 as f64),
            ("wal.append_ns_p50", "ns", end.wal_append_ns_p50 as f64),
            (
                "wal.bytes_per_record",
                "B/record",
                end.wal_bytes as f64 / end.wal_records.max(1) as f64,
            ),
            (
                "recovery.replayed_records",
                "count",
                end.replayed_records as f64,
            ),
            ("recovery.runs_loaded", "count", end.runs_loaded as f64),
            ("recovery.wal_bytes", "B", end.recovery_wal_bytes as f64),
            ("recovery.shard_max_ms", "ms", end.shard_max_ms),
            (
                "recovery.replay_threads",
                "count",
                end.replay_threads as f64,
            ),
            (
                "snapshot.flushed_entries",
                "count",
                self.snapshot_flushed.get(),
            ),
            ("trace.throughput_ops_s", "1/s", tput(self.traced)),
            (
                "trace.overhead_pct",
                "%",
                (tput(self.untraced) / tput(self.traced) - 1.0) * 100.0,
            ),
        ]
    }

    /// The trace file: the per-layer metrics, then one span per line as
    /// `[id, parent, op, name, start_ns, end_ns]` (parent -1 for an
    /// operation's own span).
    pub fn render(&self, header: &str, metrics: &str) -> String {
        let mut out = String::with_capacity(64 * self.spans.len() + 4096);
        let _ = write!(out, "{{{header},\"metrics\":{metrics},\"spans\":[");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                s.parent as i64
            };
            let sep = if id == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n[{id},{parent},{},\"{}\",{},{}]",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// What the traced run reads once, after its timed phase and reopen.
#[derive(Debug, Default)]
pub struct EndState {
    pub runs: usize,
    pub wal_groups: u64,
    pub wal_records: u64,
    pub wal_bytes: u64,
    pub wal_fsync_ns_p50: u64,
    pub wal_append_ns_p50: u64,
    pub replayed_records: usize,
    pub runs_loaded: usize,
    pub recovery_wal_bytes: u64,
    pub shard_max_ms: f64,
    pub replay_threads: usize,
}
