//! The benchmark's own model of the store: every live cell and its
//! payload, updated on every acked write. Each check returns a
//! description of the first mismatch it finds.
//!
//! The model is a dense array over the whole grid (32 MiB at order 11),
//! so checking a box costs one array read per cell of the box.

use sfc_core::Point;
use sfc_index::BoxRegion;
use sfc_store::BatchOp;

use crate::workload::SIDE;

/// Payload value marking an empty cell; generated payloads never reach it.
const EMPTY: u64 = u64::MAX;

#[derive(Debug)]
pub struct Model {
    cells: Vec<u64>,
    live: usize,
}

impl Default for Model {
    fn default() -> Self {
        Model {
            cells: vec![EMPTY; (SIDE as usize) * (SIDE as usize)],
            live: 0,
        }
    }
}

pub type Check = Result<(), String>;

impl Model {
    pub fn len(&self) -> usize {
        self.live
    }

    fn slot(p: Point<2>) -> usize {
        p.coord(1) as usize * SIDE as usize + p.coord(0) as usize
    }

    pub fn get(&self, p: Point<2>) -> Option<u64> {
        Some(self.cells[Self::slot(p)]).filter(|&v| v != EMPTY)
    }

    pub fn insert(&mut self, p: Point<2>, payload: u64) {
        assert_ne!(payload, EMPTY, "payload collides with the empty marker");
        let cell = &mut self.cells[Self::slot(p)];
        self.live += usize::from(*cell == EMPTY);
        *cell = payload;
    }

    pub fn delete(&mut self, p: Point<2>) {
        let cell = &mut self.cells[Self::slot(p)];
        self.live -= usize::from(*cell != EMPTY);
        *cell = EMPTY;
    }

    pub fn apply_batch(&mut self, ops: &[BatchOp<2, u64>]) {
        for op in ops {
            match op {
                BatchOp::Insert(p, v) => self.insert(*p, *v),
                BatchOp::Delete(p) => self.delete(*p),
            }
        }
    }

    pub fn check_get(&self, p: Point<2>, got: Option<u64>) -> Check {
        let want = self.get(p);
        if got == want {
            Ok(())
        } else {
            Err(format!("get {p}: store {got:?}, model {want:?}"))
        }
    }

    /// Every hit lies in the box, appears once and carries the model's
    /// payload, and the hits number exactly the model's cells in the box
    /// (counted by iterating the box, not the store).
    pub fn check_box<'a>(
        &self,
        b: &BoxRegion<2>,
        hits: impl IntoIterator<Item = (Point<2>, &'a u64)>,
    ) -> Check {
        let mut seen = std::collections::HashSet::new();
        for (p, &v) in hits {
            if !b.contains(&p) {
                return Err(format!("box {b:?}: hit {p} outside the box"));
            }
            if !seen.insert(p) {
                return Err(format!("box {b:?}: duplicate hit {p}"));
            }
            if self.get(p) != Some(v) {
                return Err(format!(
                    "box {b:?}: hit {p} payload {v}, model {:?}",
                    self.get(p)
                ));
            }
        }
        let want = b.cells().filter(|&c| self.get(c).is_some()).count();
        if seen.len() == want {
            Ok(())
        } else {
            Err(format!("box {b:?}: {} hits, model {want}", seen.len()))
        }
    }

    /// The hits are `min(k, live)` distinct live records whose sorted
    /// squared distances equal those of the model's `k` nearest cells.
    pub fn check_knn<'a>(
        &self,
        q: Point<2>,
        k: usize,
        hits: impl IntoIterator<Item = (Point<2>, &'a u64)>,
    ) -> Check {
        let mut seen = std::collections::HashSet::new();
        let mut got = Vec::new();
        for (p, &v) in hits {
            if !seen.insert(p) {
                return Err(format!("knn {q}: duplicate hit {p}"));
            }
            if self.get(p) != Some(v) {
                return Err(format!("knn {q}: hit {p} payload {v} is not live"));
            }
            got.push(q.euclidean_sq(&p));
        }
        got.sort_unstable();
        let want = self.nearest_distances(q, k);
        if got == want {
            Ok(())
        } else {
            Err(format!("knn {q}: distances {got:?}, model {want:?}"))
        }
    }

    /// Squared distances of the `k` model cells nearest to `q`, sorted,
    /// by a ring search: after ring `r` every cell within Chebyshev
    /// distance `r` is known and every other cell is at least `r + 1`
    /// away, so the search stops once the `k`-th best is that close.
    pub fn nearest_distances(&self, q: Point<2>, k: usize) -> Vec<u64> {
        let mut best: Vec<u64> = Vec::new();
        let (qx, qy) = (i64::from(q.coord(0)), i64::from(q.coord(1)));
        let side = i64::from(SIDE);
        let consider = |x: i64, y: i64, best: &mut Vec<u64>| {
            if (0..side).contains(&x) && (0..side).contains(&y) {
                let p = Point::new([x as u32, y as u32]);
                if self.get(p).is_some() {
                    best.push(q.euclidean_sq(&p));
                }
            }
        };
        for r in 0..side {
            if r == 0 {
                consider(qx, qy, &mut best);
            } else {
                for d in -r..=r {
                    consider(qx + d, qy - r, &mut best);
                    consider(qx + d, qy + r, &mut best);
                }
                for d in -r + 1..r {
                    consider(qx - r, qy + d, &mut best);
                    consider(qx + r, qy + d, &mut best);
                }
            }
            best.sort_unstable();
            best.truncate(k);
            let outside = ((r + 1) * (r + 1)) as u64;
            if best.len() == k && best[k - 1] <= outside {
                break;
            }
        }
        best
    }

    /// A full scan of the store holds exactly the model's records.
    pub fn check_all<'a>(&self, entries: impl IntoIterator<Item = (Point<2>, &'a u64)>) -> Check {
        let mut n = 0usize;
        for (p, &v) in entries {
            n += 1;
            if self.get(p) != Some(v) {
                return Err(format!(
                    "scan: record {p} payload {v}, model {:?}",
                    self.get(p)
                ));
            }
        }
        if n == self.live {
            Ok(())
        } else {
            Err(format!("scan: {n} records, model {}", self.live))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Rng;

    fn brute_force(model: &Model, q: Point<2>, k: usize) -> Vec<u64> {
        let mut all: Vec<u64> = (0..SIDE * SIDE)
            .map(|i| Point::new([i % SIDE, i / SIDE]))
            .filter(|&p| model.get(p).is_some())
            .map(|p| q.euclidean_sq(&p))
            .collect();
        all.sort_unstable();
        all.truncate(k);
        all
    }

    #[test]
    fn ring_search_matches_brute_force() {
        let mut rng = Rng::new(11);
        for live in [12usize, 40, 3000] {
            let mut model = Model::default();
            for i in 0..live {
                model.insert(rng.cell(), i as u64);
            }
            for _ in 0..50 {
                let q = rng.cell();
                assert_eq!(model.nearest_distances(q, 10), brute_force(&model, q, 10));
            }
        }
        // Corners and edges, where rings leave the grid.
        let mut model = Model::default();
        for i in 0..200 {
            model.insert(Point::new([rng.below(64) as u32, rng.below(64) as u32]), i);
        }
        for q in [
            Point::new([0, 0]),
            Point::new([SIDE - 1, SIDE - 1]),
            Point::new([0, SIDE - 1]),
        ] {
            assert_eq!(model.nearest_distances(q, 10), brute_force(&model, q, 10));
        }
    }

    #[test]
    fn checks_catch_wrong_results() {
        let mut model = Model::default();
        let a = Point::new([10, 10]);
        let b = Point::new([12, 10]);
        model.insert(a, 1);
        model.insert(b, 2);
        let bx = BoxRegion::new(Point::new([9, 9]), Point::new([11, 11]));
        assert!(model.check_box(&bx, [(a, &1)]).is_ok());
        assert!(model.check_box(&bx, []).is_err(), "missing hit");
        assert!(
            model.check_box(&bx, [(a, &1), (a, &1)]).is_err(),
            "duplicate"
        );
        assert!(model.check_box(&bx, [(a, &1), (b, &2)]).is_err(), "outside");
        assert!(model.check_box(&bx, [(a, &9)]).is_err(), "stale payload");
        assert!(model.check_knn(a, 1, [(a, &1)]).is_ok());
        assert!(model.check_knn(a, 1, [(b, &2)]).is_err(), "not nearest");
        assert!(model.check_get(b, Some(2)).is_ok());
        assert!(model.check_get(b, None).is_err());
        model.delete(b);
        assert!(model.check_get(b, None).is_ok());
        assert!(model.check_all([(a, &1)]).is_ok());
        assert!(model.check_all([(a, &1), (b, &2)]).is_err());
    }
}
