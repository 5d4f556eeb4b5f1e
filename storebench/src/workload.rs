//! Workload definitions and the seeded operation generator.
//!
//! A workload is a population loaded at set-up plus a *round*: a fixed
//! sequence of operation kinds that the client repeats until the run's
//! time is up. Every round starts with one snapshot, so the memtables
//! start every round empty. Every write lands on a cell of the
//! population's fixed key pool, and the pool is loaded at its
//! steady-state live share, so the store neither grows nor shrinks with
//! the number of rounds a run manages: a faster machine (or program) runs
//! more rounds against the same store. The order of kinds inside a round
//! is the same in every run; only the cells, boxes and payloads come from
//! the seed.

use sfc_core::Point;
use sfc_index::BoxRegion;
use sfc_store::BatchOp;

/// Curve order the store is keyed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CurveKind {
    Z,
    Hilbert,
}

/// Operation kinds, in the order the run reports them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Write,
    Batch,
    Box,
    Knn,
    Get,
    Snapshot,
}

impl Kind {
    pub const ALL: [Kind; 6] = [
        Kind::Write,
        Kind::Batch,
        Kind::Box,
        Kind::Knn,
        Kind::Get,
        Kind::Snapshot,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Write => "write",
            Kind::Batch => "batch",
            Kind::Box => "box",
            Kind::Knn => "knn",
            Kind::Get => "get",
            Kind::Snapshot => "snapshot",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// One generated operation, as the store receives it.
#[derive(Debug, Clone)]
pub enum Op {
    Insert(Point<2>, u64),
    Delete(Point<2>),
    Batch(Vec<BatchOp<2, u64>>),
    Box(BoxRegion<2>),
    Knn(Point<2>),
    Get(Point<2>),
    /// Take a snapshot, then answer this box on it.
    Snapshot(BoxRegion<2>),
}

impl Op {
    pub fn kind(&self) -> Kind {
        match self {
            Op::Insert(..) | Op::Delete(_) => Kind::Write,
            Op::Batch(_) => Kind::Batch,
            Op::Box(_) => Kind::Box,
            Op::Knn(_) => Kind::Knn,
            Op::Get(_) => Kind::Get,
            Op::Snapshot(_) => Kind::Snapshot,
        }
    }

    /// Records this operation writes (0 for reads).
    pub fn records_written(&self) -> usize {
        match self {
            Op::Insert(..) | Op::Delete(_) => 1,
            Op::Batch(ops) => ops.len(),
            _ => 0,
        }
    }
}

/// Grid order: 2-D, 2^11 cells per side.
pub const ORDER: u32 = 11;
pub const SIDE: u32 = 1 << ORDER;
/// Shards of the store.
pub const SHARDS: usize = 4;
/// Neighbours per kNN query.
pub const KNN_K: usize = 10;
/// Per-level candidate window of the kNN walk.
pub const KNN_WINDOW: usize = 16;
/// Records per acked batch while loading the base at set-up.
pub const LOAD_BATCH: usize = 65536;
/// One single write in this many is a delete; so is one batch entry in
/// this many.
pub const DELETE_EVERY: u64 = 10;
/// Single writes a random walker makes before the next walker takes
/// over, so consecutive single-write keys stay curve-local.
pub const WALK_BURST: u64 = 32;
/// Random-walk trajectories of the single writes.
pub const WALKERS: usize = 4;
/// Side of the square tile each walker stays in.
pub const TILE: u32 = 64;
/// Batches written after the closing compaction, for the reopen to
/// replay: well under a memtable per shard, so none of them is flushed.
pub const TAIL_BATCHES: usize = 4;
/// Box sides, drawn per axis: every box is above the planner's
/// decomposition cutoff of 64 cells.
pub const BOX_SIDE: (u32, u32) = (16, 40);

/// A workload: its store shape, base population and round.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub curve: CurveKind,
    /// Base cells (distinct uniform random cells) of the key pool.
    pub base: usize,
    /// Memtable capacity per shard; a shard flushes inline at it.
    pub memtable: usize,
    /// Records per batch operation.
    pub batch: usize,
    /// Operations of each kind per round, indexed by [`Kind::index`];
    /// the snapshot count is always 1.
    pub per_round: [usize; 6],
    /// Untimed rounds before the timed phase.
    pub warmup_rounds: usize,
}

impl Spec {
    /// The same workload scaled down so a run with every check takes
    /// seconds: a sixteenth of the base, a quarter of each round.
    pub fn small(&self) -> Spec {
        let mut s = self.clone();
        s.base /= 16;
        s.memtable = (s.memtable / 16).max(64);
        s.batch = (s.batch / 4).max(1);
        for (i, n) in s.per_round.iter_mut().enumerate() {
            if i != Kind::Snapshot.index() {
                *n = (*n / 4).max(1);
            }
        }
        s.warmup_rounds = 1;
        s
    }
}

/// The three workloads. Shares are per round: `ingest` is about 90%
/// writes, the query workloads about 95% reads.
pub fn specs() -> Vec<Spec> {
    let query = |name, curve| Spec {
        name,
        curve,
        base: 1 << 20,
        memtable: 512,
        batch: 128,
        //          write batch box knn get snapshot
        per_round: [30, 20, 300, 250, 399, 1],
        warmup_rounds: 4,
    };
    vec![
        Spec {
            name: "ingest",
            curve: CurveKind::Z,
            base: 1 << 18,
            memtable: 6144,
            batch: 1024,
            per_round: [600, 25, 25, 25, 25, 1],
            warmup_rounds: 3,
        },
        query("query_z", CurveKind::Z),
        query("query_hilbert", CurveKind::Hilbert),
    ]
}

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: u32, hi: u32) -> u32 {
        lo + self.below(u64::from(hi - lo) + 1) as u32
    }

    pub fn cell(&mut self) -> Point<2> {
        Point::new([
            self.below(SIDE.into()) as u32,
            self.below(SIDE.into()) as u32,
        ])
    }
}

/// The seeded key pool every write lands on: the base cells plus one
/// tile per walker.
#[derive(Debug, Clone)]
pub struct Population {
    /// Distinct uniform random cells, the targets of batch entries.
    pub base: Vec<Point<2>>,
    /// Lower corner of each walker's `TILE` x `TILE` tile.
    pub tiles: [Point<2>; WALKERS],
}

impl Population {
    pub fn new(spec: &Spec, seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0xBA5E_BA5E_BA5E_BA5E);
        let mut taken = vec![false; (SIDE as usize) * (SIDE as usize)];
        let mut base = Vec::with_capacity(spec.base);
        while base.len() < spec.base {
            let p = rng.cell();
            let slot = &mut taken[p.coord(1) as usize * SIDE as usize + p.coord(0) as usize];
            if !std::mem::replace(slot, true) {
                base.push(p);
            }
        }
        let tiles = [(); WALKERS].map(|_| {
            let mut corner = || rng.below(u64::from(SIDE - TILE + 1)) as u32;
            Point::new([corner(), corner()])
        });
        Population { base, tiles }
    }

    /// The records set-up loads: every cell of the pool except one in
    /// [`DELETE_EVERY`]. Writes upsert a pool cell and one in
    /// `DELETE_EVERY` deletes one, so this live share is the one the
    /// writes keep. Payloads are the records' positions in the load.
    pub fn load(&self) -> Vec<BatchOp<2, u64>> {
        let tile_cells = self.tiles.iter().flat_map(|t| {
            (0..TILE * TILE)
                .map(move |i| Point::new([t.coord(0) + i % TILE, t.coord(1) + i / TILE]))
        });
        self.base
            .iter()
            .copied()
            .chain(tile_cells)
            .enumerate()
            .filter(|(i, _)| !(*i as u64 + 1).is_multiple_of(DELETE_EVERY))
            .enumerate()
            .map(|(payload, (_, p))| BatchOp::Insert(p, payload as u64))
            .collect()
    }
}

/// The kind of every position of a round: a snapshot first, then the
/// other kinds shuffled with a fixed seed, so every run repeats exactly
/// the same sequence of kinds.
pub fn round_schedule(spec: &Spec) -> Vec<Kind> {
    let mut rest: Vec<Kind> = Kind::ALL
        .iter()
        .filter(|&&k| k != Kind::Snapshot)
        .flat_map(|&k| std::iter::repeat_n(k, spec.per_round[k.index()]))
        .collect();
    let mut rng = Rng::new(0x5C4E_D01E);
    for i in (1..rest.len()).rev() {
        rest.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut kinds = vec![Kind::Snapshot];
    kinds.extend(rest);
    kinds
}

/// Generates rounds of operations from the workload seed. The store
/// never sees the generator, only the operations it yields.
#[derive(Debug)]
pub struct Generator<'a> {
    spec: &'a Spec,
    schedule: Vec<Kind>,
    base: &'a [Point<2>],
    tiles: [Point<2>; WALKERS],
    rng: Rng,
    walkers: [Point<2>; WALKERS],
    /// The cell each walker wrote last — the target of its next delete.
    last_written: [Point<2>; WALKERS],
    single_writes: u64,
    batch_entries: u64,
    payload: u64,
}

impl<'a> Generator<'a> {
    pub fn new(spec: &'a Spec, pop: &'a Population, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let walkers = pop.tiles.map(|t| {
            let mut offset = || rng.below(TILE.into()) as u32;
            Point::new([t.coord(0) + offset(), t.coord(1) + offset()])
        });
        Generator {
            spec,
            schedule: round_schedule(spec),
            base: &pop.base,
            tiles: pop.tiles,
            rng,
            walkers,
            last_written: walkers,
            single_writes: 0,
            batch_entries: 0,
            // Loaded payloads are below the pool's size; later writes
            // continue the count, so every payload is unique.
            payload: (pop.base.len() + WALKERS * (TILE * TILE) as usize) as u64,
        }
    }

    fn next_payload(&mut self) -> u64 {
        self.payload += 1;
        self.payload
    }

    fn random_box(&mut self) -> BoxRegion<2> {
        let (lo_side, hi_side) = BOX_SIDE;
        let w = self.rng.between(lo_side, hi_side);
        let h = self.rng.between(lo_side, hi_side);
        let x = self.below_u32(SIDE - w + 1);
        let y = self.below_u32(SIDE - h + 1);
        BoxRegion::new(Point::new([x, y]), Point::new([x + w - 1, y + h - 1]))
    }

    fn below_u32(&mut self, n: u32) -> u32 {
        self.rng.below(n.into()) as u32
    }

    fn base_cell(&mut self) -> Point<2> {
        self.base[self.rng.below(self.base.len() as u64) as usize]
    }

    /// One step of the current walker: a move to one of the 8 neighbours,
    /// clamped to its tile. Every tenth single write deletes the cell the
    /// walker wrote before.
    fn single_write(&mut self) -> Op {
        let w = ((self.single_writes / WALK_BURST) % WALKERS as u64) as usize;
        self.single_writes += 1;
        if self.single_writes.is_multiple_of(DELETE_EVERY) {
            return Op::Delete(self.last_written[w]);
        }
        let (p, tile) = (self.walkers[w], self.tiles[w]);
        let step = |axis: usize, d: u64| {
            let (c, lo) = (p.coord(axis), tile.coord(axis));
            match d {
                0 => c.saturating_sub(1).max(lo),
                1 => c,
                _ => (c + 1).min(lo + TILE - 1),
            }
        };
        let mut next = p;
        while next == p {
            let d = self.rng.below(9);
            next = Point::new([step(0, d % 3), step(1, d / 3)]);
        }
        self.walkers[w] = next;
        self.last_written[w] = next;
        Op::Insert(next, self.next_payload())
    }

    /// Upserts of uniformly drawn base cells; one entry in ten deletes a
    /// base cell instead.
    fn batch(&mut self) -> Op {
        let ops = (0..self.spec.batch)
            .map(|_| {
                self.batch_entries += 1;
                let p = self.base_cell();
                if self.batch_entries.is_multiple_of(DELETE_EVERY) {
                    BatchOp::Delete(p)
                } else {
                    BatchOp::Insert(p, self.next_payload())
                }
            })
            .collect();
        Op::Batch(ops)
    }

    /// Gets alternate between base cells (mostly live), uniform cells
    /// (mostly empty) and the cells the walkers just wrote.
    fn get(&mut self) -> Op {
        Op::Get(match self.rng.below(3) {
            0 => self.base_cell(),
            1 => self.rng.cell(),
            _ => self.last_written[self.rng.below(WALKERS as u64) as usize],
        })
    }

    /// The batches written after the closing compaction.
    pub fn tail(&mut self) -> Vec<Op> {
        (0..TAIL_BATCHES).map(|_| self.batch()).collect()
    }

    pub fn round(&mut self) -> Vec<Op> {
        let schedule = std::mem::take(&mut self.schedule);
        let ops = schedule
            .iter()
            .map(|kind| match kind {
                Kind::Write => self.single_write(),
                Kind::Batch => self.batch(),
                Kind::Box => Op::Box(self.random_box()),
                Kind::Knn => Op::Knn(self.rng.cell()),
                Kind::Get => self.get(),
                Kind::Snapshot => Op::Snapshot(self.random_box()),
            })
            .collect();
        self.schedule = schedule;
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_rounds() {
        let spec = specs()[0].small();
        let pop = Population::new(&spec, 7);
        let fmt = |seed| {
            let mut g = Generator::new(&spec, &pop, seed);
            format!("{:?}{:?}", g.round(), g.round())
        };
        assert_eq!(fmt(7), fmt(7));
        assert_ne!(fmt(7), fmt(8));
    }

    #[test]
    fn rounds_follow_the_schedule() {
        for spec in specs() {
            let pop = Population::new(&spec.small(), 1);
            let mut g = Generator::new(&spec, &pop, 1);
            let kinds: Vec<Kind> = g.round().iter().map(Op::kind).collect();
            assert_eq!(kinds, round_schedule(&spec));
            assert_eq!(kinds[0], Kind::Snapshot);
            for k in Kind::ALL {
                let n = kinds.iter().filter(|&&x| x == k).count();
                assert_eq!(n, spec.per_round[k.index()], "{} {}", spec.name, k.name());
            }
        }
    }

    #[test]
    fn boxes_stay_on_the_grid_and_within_side_bounds() {
        let spec = specs()[1].clone();
        let pop = Population::new(&spec.small(), 3);
        let mut g = Generator::new(&spec, &pop, 3);
        for _ in 0..10_000 {
            let b = g.random_box();
            for axis in 0..2 {
                let side = b.hi().coord(axis) - b.lo().coord(axis) + 1;
                assert!((BOX_SIDE.0..=BOX_SIDE.1).contains(&side));
                assert!(b.hi().coord(axis) < SIDE);
            }
        }
    }

    #[test]
    fn walkers_write_neighbouring_cells_and_delete_their_last_write() {
        let spec = specs()[0].clone();
        let pop = Population::new(&spec.small(), 5);
        let mut g = Generator::new(&spec, &pop, 5);
        let tile = pop.tiles[0];
        let in_tile = |p: Point<2>| {
            (0..2).all(|a| (tile.coord(a)..tile.coord(a) + TILE).contains(&p.coord(a)))
        };
        let mut prev: Option<Point<2>> = None;
        for i in 1..=WALK_BURST {
            match g.single_write() {
                Op::Insert(p, _) => {
                    if let Some(q) = prev {
                        assert_eq!(q.chebyshev(&p), 1, "step {i}");
                    }
                    assert!(in_tile(p), "step {i} left the tile");
                    prev = Some(p);
                }
                Op::Delete(p) => {
                    assert_eq!(i % DELETE_EVERY, 0);
                    assert_eq!(Some(p), prev);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn every_write_lands_on_the_pool_loaded_at_its_live_share() {
        let spec = specs()[0].small();
        let pop = Population::new(&spec, 9);
        let mut pool: Vec<Point<2>> = pop.base.clone();
        for t in pop.tiles {
            for i in 0..TILE * TILE {
                pool.push(Point::new([t.coord(0) + i % TILE, t.coord(1) + i / TILE]));
            }
        }
        let mut distinct = pop.base.clone();
        distinct.sort_unstable_by_key(|p| (p.coord(0), p.coord(1)));
        distinct.dedup();
        assert_eq!(distinct.len(), spec.base, "base cells are distinct");
        let load = pop.load();
        let expect = pool.len() - pool.len() / DELETE_EVERY as usize;
        assert_eq!(load.len(), expect);
        let mut g = Generator::new(&spec, &pop, 9);
        for _ in 0..3 {
            for op in g.round() {
                let points: Vec<Point<2>> = match op {
                    Op::Insert(p, _) | Op::Delete(p) => vec![p],
                    Op::Batch(ops) => ops.iter().map(|o| *o.point()).collect(),
                    _ => continue,
                };
                assert!(points.iter().all(|p| pool.contains(p)));
            }
        }
    }
}
