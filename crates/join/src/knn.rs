use crate::pipeline::{expansion, for_each_cogroup, native_cell, shuffle_keyed};
use crate::{JoinError, JoinInput, JoinSpec, Record, RecordPayload};
use asj_engine::{Cluster, Dataset, ExecStats, HashPartitioner, ShuffleStats};
use asj_geom::Point;
use asj_grid::{CellCoord, Grid, GridSpec};
use std::collections::HashMap;

/// Result of a [`knn_join`].
#[derive(Debug, Clone)]
pub struct KnnOutput {
    /// For every query id: its `k` nearest neighbor ids with distances,
    /// ascending (fewer than `k` only when `|S| < k`).
    pub neighbors: Vec<(u64, Vec<(u64, f64)>)>,
    /// Search rounds executed (radius doubles per round).
    pub rounds: usize,
    pub shuffle: ShuffleStats,
    pub exec: ExecStats,
}

/// Distributed **k-nearest-neighbor join**: for every point of `r`, its `k`
/// nearest points of `s` — the companion operation of the distance join in
/// the Spark-based spatial engines the paper compares against (Simba,
/// LocationSpark; studied for Sedona in \[9\]).
///
/// Expanding-ring implementation on the same grid substrate: `s` is shuffled
/// once by native cell; queries probe the cells within a search radius that
/// starts at one cell size and doubles each round, until the k-th neighbor
/// distance is within the searched radius (then no unseen point can improve
/// the answer). Per cell only the k best candidates of a query travel back,
/// so result traffic stays `O(|R|·k)` per round.
///
/// The grid resolution comes from `spec` (`grid_factor · eps` cells); `k`
/// must be positive ([`JoinError::InvalidSpec`] otherwise). Ties are broken
/// by neighbor id, making the result deterministic.
pub fn knn_join<P: RecordPayload>(
    cluster: &Cluster,
    spec: &JoinSpec,
    k: usize,
    r: impl Into<JoinInput<Record<P>>>,
    s: impl Into<JoinInput<Record<P>>>,
) -> Result<KnnOutput, JoinError> {
    knn_join_probe(cluster, spec, k, r.into(), s.into(), true)
}

/// [`knn_join`] with the probe strategy explicit. `annulus_only = true` (the
/// public behavior) routes each pending query only to the cells of the
/// current round's annulus `prev_radius < MINDIST ≤ radius`; `false` is the
/// naive full-disk re-probe (every cell within the radius, every round),
/// kept as the oracle the regression test measures shuffle savings against.
fn knn_join_probe<P: RecordPayload>(
    cluster: &Cluster,
    spec: &JoinSpec,
    k: usize,
    r: JoinInput<Record<P>>,
    s: JoinInput<Record<P>>,
    annulus_only: bool,
) -> Result<KnnOutput, JoinError> {
    if k == 0 {
        let reason = "must be positive".to_string();
        return Err(JoinError::InvalidSpec { field: "k", reason });
    }
    spec.validate()?;
    let grid = Grid::new(GridSpec::with_factor(spec.bbox, spec.eps, spec.grid_factor));
    let (rdd_r, s) = (r.partitioned(spec).rows, s.partitioned(spec));
    let s_total = s.rows.len();
    let partitioner = HashPartitioner::new(spec.num_partitions);
    let mut exec = ExecStats::default();
    let mut shuffle = ShuffleStats::default();

    // Shuffle S once by its native cell.
    let grid_b = cluster.broadcast(grid);
    let assign = native_cell(grid_b.clone());
    let expand = expansion(&assign);
    let (s_cells, _, sh, ex) = shuffle_keyed(
        cluster,
        (s.rows, s.remake.as_ref()),
        expand,
        &partitioner,
        "shuffle",
    )?;
    shuffle.merge(&sh);
    exec.accumulate(&ex);
    // S stays resident; every round's join borrows it.
    let s_cells = s_cells.into_rows()?;

    // Per-query best-so-far lists, merged on the driver between rounds; the
    // queries still pending stay in their input partitions, in memory.
    let mut pending: Vec<Vec<Record<P>>> = rdd_r.try_into_partitions("queries")?;
    let mut best: HashMap<u64, Vec<(f64, u64)>> = pending
        .iter()
        .flatten()
        .map(|q| (q.id, Vec::new()))
        .collect();
    let (lx, ly) = grid_b.cell_side();
    let mut radius = lx.max(ly);
    let world = (grid_b.bbox().width().powi(2) + grid_b.bbox().height().powi(2)).sqrt();
    let mut rounds = 0usize;
    // Squared radius already probed by every still-pending query (the
    // pending set only shrinks, so all of them share it). Starts below any
    // real MINDIST² so round 1 includes the query's own cell.
    let mut probed2 = -1.0f64;

    while pending.iter().any(|part| !part.is_empty()) {
        rounds += 1;
        // Route every pending query to the cells of this round's annulus:
        // prev_radius < MINDIST <= radius. Everything inside prev_radius was
        // already probed in earlier rounds — re-sending the query there only
        // manufactures duplicate candidates for the driver-side dedup.
        let rad = radius;
        let prev2 = if annulus_only { probed2 } else { -1.0 };
        let rdd_q = Dataset::from_partitions(pending.clone());
        let (q_cells, sh, ex) =
            rdd_q.shuffle_stage_by(cluster, &partitioner, "shuffle", |part| {
                let mut out = Vec::new();
                for rec in part {
                    let lo = grid_b.cell_of(Point::new(rec.point.x - rad, rec.point.y - rad));
                    let hi = grid_b.cell_of(Point::new(rec.point.x + rad, rec.point.y + rad));
                    for cy in lo.y..=hi.y {
                        for cx in lo.x..=hi.x {
                            let c = CellCoord { x: cx, y: cy };
                            let m2 = grid_b.cell_rect(c).mindist2(rec.point);
                            if m2 > prev2 && m2 <= rad * rad {
                                out.push((grid_b.cell_index(c) as u64, rec.clone()));
                            }
                        }
                    }
                }
                out
            })?;
        shuffle.merge(&sh);
        exec.accumulate(&ex);
        let q_cells = q_cells.into_rows()?;

        // Per partition: for each query in a cell, its k best candidates
        // among the cell's S points.
        let tasks: Vec<_> = q_cells
            .partitions()
            .iter()
            .zip(s_cells.partitions())
            .collect();
        let (cand_parts, ex) = cluster.try_run_stage("task", tasks, |_, (qs, ss)| {
            let mut out: Vec<(u64, Vec<(f64, u64)>)> = Vec::new();
            for_each_cogroup(&[qs], &[ss], |_, queries, points| {
                for q in queries {
                    let mut cands: Vec<(f64, u64)> = points
                        .iter()
                        .map(|p| (q.point.dist2(p.point), p.id))
                        .collect();
                    cands.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                    cands.truncate(k);
                    out.push((q.id, cands));
                }
            });
            Ok(out)
        })?;
        exec.accumulate(&ex);

        // Driver: merge candidates and decide which queries are resolved.
        for part in cand_parts {
            for (qid, cands) in part {
                let entry = best.get_mut(&qid).expect("query must exist");
                entry.extend(cands);
                entry.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                entry.dedup_by_key(|e| e.1);
                entry.truncate(k);
            }
        }
        let r2 = radius * radius;
        for part in &mut pending {
            part.retain(|q| {
                let found = &best[&q.id];
                let complete = found.len() >= k.min(s_total);
                let safe = found.last().is_some_and(|last| last.0 <= r2);
                !(complete && (safe || radius >= world))
            });
        }
        probed2 = radius * radius;
        if radius >= world {
            break;
        }
        radius = (radius * 2.0).min(world);
    }

    let mut neighbors: Vec<(u64, Vec<(u64, f64)>)> = best
        .into_iter()
        .map(|(qid, list)| {
            (
                qid,
                list.into_iter().map(|(d2, sid)| (sid, d2.sqrt())).collect(),
            )
        })
        .collect();
    neighbors.sort_unstable_by_key(|x| x.0);
    Ok(KnnOutput {
        neighbors,
        rounds,
        shuffle,
        exec,
    })
}

/// Brute-force kNN oracle (ids of the k nearest, ties by id).
pub fn brute_force_knn(r: &[Record], s: &[Record], k: usize) -> Vec<(u64, Vec<u64>)> {
    let mut out: Vec<(u64, Vec<u64>)> = r
        .iter()
        .map(|q| {
            let mut d: Vec<(f64, u64)> = s.iter().map(|p| (q.point.dist2(p.point), p.id)).collect();
            d.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            d.truncate(k);
            (q.id, d.into_iter().map(|(_, id)| id).collect())
        })
        .collect();
    out.sort_unstable_by_key(|x| x.0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::to_records;
    use asj_engine::ClusterConfig;
    use asj_geom::Rect;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::with_threads(3, 2))
    }

    fn records(n: usize, seed: u64, extent: f64) -> Vec<Record> {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..extent), rng.gen_range(0.0..extent)))
            .collect();
        to_records(&pts, 0)
    }

    /// `out` lists the brute-force neighbor ids, and each reported distance
    /// is within 1e-9 (squared) of the one computed here from the
    /// coordinates. `to_records` ids are input positions.
    fn assert_brute_force(out: &KnnOutput, r: &[Record], s: &[Record], k: usize) {
        let got: Vec<(u64, Vec<u64>)> = out
            .neighbors
            .iter()
            .map(|(q, ns)| (*q, ns.iter().map(|(id, _)| *id).collect()))
            .collect();
        assert_eq!(got, brute_force_knn(r, s, k), "k={k}");
        for (qid, ns) in &out.neighbors {
            let q = r[*qid as usize].point;
            for &(sid, d) in ns {
                let want2 = q.dist2(s[sid as usize].point);
                let msg = format!("query {qid}: {d} vs {}", want2.sqrt());
                assert!((d * d - want2).abs() < 1e-9, "{msg}");
            }
        }
    }

    #[test]
    fn matches_brute_force_uniform() {
        let c = cluster();
        let spec = JoinSpec::new(Rect::new(0.0, 0.0, 20.0, 20.0), 1.0).with_partitions(8);
        let r = records(120, 91, 20.0);
        let s = records(300, 92, 20.0);
        for k in [1usize, 3, 10] {
            let out = knn_join(&c, &spec, k, r.clone(), s.clone()).expect("join runs");
            assert_brute_force(&out, &r, &s, k);
        }
    }

    #[test]
    fn sparse_queries_need_multiple_rounds() {
        let c = cluster();
        let spec = JoinSpec::new(Rect::new(0.0, 0.0, 40.0, 40.0), 1.0).with_partitions(8);
        // One query in an empty corner, S clustered far away.
        let r = to_records(&[Point::new(1.0, 1.0)], 0);
        let mut rng = StdRng::seed_from_u64(93);
        let s_pts: Vec<Point> = (0..50)
            .map(|_| {
                Point::new(
                    35.0 + rng.gen_range(0.0..4.0),
                    35.0 + rng.gen_range(0.0..4.0),
                )
            })
            .collect();
        let s = to_records(&s_pts, 0);
        let out = knn_join(&c, &spec, 5, r.clone(), s.clone()).expect("join runs");
        assert!(out.rounds > 1, "far neighbors require ring expansion");
        assert_brute_force(&out, &r, &s, 5);
    }

    #[test]
    fn annulus_probing_ships_strictly_less_than_full_disk() {
        let c = cluster();
        let spec = JoinSpec::new(Rect::new(0.0, 0.0, 40.0, 40.0), 1.0).with_partitions(8);
        // Queries spread out, S clustered: several expansion rounds, so the
        // full-disk baseline re-probes ever-larger disks it already covered.
        let r = to_records(
            &[
                Point::new(1.0, 1.0),
                Point::new(20.0, 3.0),
                Point::new(3.0, 22.0),
            ],
            0,
        );
        let mut rng = StdRng::seed_from_u64(93);
        let s_pts: Vec<Point> = (0..60)
            .map(|_| {
                Point::new(
                    33.0 + rng.gen_range(0.0..6.0),
                    33.0 + rng.gen_range(0.0..6.0),
                )
            })
            .collect();
        let s = to_records(&s_pts, 0);
        let probe = |annulus_only| {
            knn_join_probe(
                &c,
                &spec,
                5,
                r.clone().into(),
                s.clone().into(),
                annulus_only,
            )
            .expect("join runs")
        };
        let (full, annulus) = (probe(false), probe(true));
        assert!(full.rounds > 1, "scenario must need ring expansion");
        assert_eq!(annulus.rounds, full.rounds, "same rounds, smaller probes");
        assert_eq!(
            annulus.neighbors, full.neighbors,
            "probe strategy must not change the answer"
        );
        assert!(
            annulus.shuffle.records < full.shuffle.records,
            "annulus probing must ship strictly fewer records: {} vs {}",
            annulus.shuffle.records,
            full.shuffle.records
        );
        assert!(annulus.shuffle.total_bytes() < full.shuffle.total_bytes());
    }

    #[test]
    fn k_larger_than_s_returns_everything() {
        let c = cluster();
        let spec = JoinSpec::new(Rect::new(0.0, 0.0, 10.0, 10.0), 1.0).with_partitions(4);
        let r = records(5, 94, 10.0);
        let s = records(3, 95, 10.0);
        let out = knn_join(&c, &spec, 10, r, s).expect("join runs");
        for (_, ns) in &out.neighbors {
            assert_eq!(ns.len(), 3);
        }
    }

    #[test]
    fn distances_are_ascending() {
        let c = cluster();
        let spec = JoinSpec::new(Rect::new(0.0, 0.0, 20.0, 20.0), 1.0).with_partitions(8);
        let r = records(50, 96, 20.0);
        let s = records(200, 97, 20.0);
        let out = knn_join(&c, &spec, 4, r, s).expect("join runs");
        assert_eq!(out.neighbors.len(), 50);
        for (_, ns) in &out.neighbors {
            assert!(ns.windows(2).all(|w| w[0].1 <= w[1].1));
        }
    }

    #[test]
    fn clustered_data_matches_brute_force() {
        let c = cluster();
        let spec = JoinSpec::new(Rect::new(0.0, 0.0, 30.0, 30.0), 1.0).with_partitions(12);
        let mut rng = StdRng::seed_from_u64(98);
        let mut pts = Vec::new();
        for _ in 0..6 {
            let cx: f64 = rng.gen_range(2.0..28.0);
            let cy: f64 = rng.gen_range(2.0..28.0);
            for _ in 0..40 {
                pts.push(Point::new(
                    (cx + rng.gen_range(-1.0..1.0)).clamp(0.0, 30.0),
                    (cy + rng.gen_range(-1.0..1.0)).clamp(0.0, 30.0),
                ));
            }
        }
        let s = to_records(&pts, 0);
        let r = records(60, 99, 30.0);
        let out = knn_join(&c, &spec, 7, r.clone(), s.clone()).expect("join runs");
        assert_brute_force(&out, &r, &s, 7);
    }

    #[test]
    fn k_zero_is_a_typed_error() {
        let c = cluster();
        let spec = JoinSpec::new(Rect::new(0.0, 0.0, 10.0, 10.0), 1.0).with_partitions(4);
        let err = knn_join(&c, &spec, 0, records(5, 1, 10.0), records(5, 2, 10.0))
            .expect_err("k = 0 is rejected");
        let reason = "must be positive".to_string();
        assert_eq!(err, JoinError::InvalidSpec { field: "k", reason });
    }
}

#[cfg(test)]
mod kdtree_oracle_tests {
    use super::*;
    use crate::to_records;
    use asj_engine::ClusterConfig;
    use asj_geom::Rect;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Independent cross-check of the distributed kNN join by distance
    /// only, so it does not depend on how ties are broken: each query's
    /// reported distances equal, within 1e-9 (squared), the k smallest of
    /// its sorted distances to every S point. (The module keeps the name it
    /// had when this oracle was an exact k-d tree search.)
    #[test]
    fn knn_join_matches_kdtree() {
        let c = Cluster::new(ClusterConfig::with_threads(3, 2));
        let spec = JoinSpec::new(Rect::new(0.0, 0.0, 25.0, 25.0), 1.0).with_partitions(8);
        let mut rng = StdRng::seed_from_u64(123);
        let pts = |rng: &mut StdRng, n: usize| -> Vec<Point> {
            (0..n)
                .map(|_| Point::new(rng.gen_range(0.0..25.0), rng.gen_range(0.0..25.0)))
                .collect()
        };
        let r = to_records(&pts(&mut rng, 80), 0);
        let s = to_records(&pts(&mut rng, 400), 0);
        let k = 5;
        let out = knn_join(&c, &spec, k, r.clone(), s.clone()).expect("join runs");
        assert_eq!(out.neighbors.len(), r.len());
        for (qid, ns) in &out.neighbors {
            let q = r[*qid as usize].point;
            let mut expect: Vec<f64> = s.iter().map(|p| q.dist2(p.point)).collect();
            expect.sort_unstable_by(f64::total_cmp);
            expect.truncate(k);
            assert_eq!(ns.len(), expect.len());
            for ((_, got_d), want_d2) in ns.iter().zip(&expect) {
                assert!(
                    (got_d * got_d - want_d2).abs() < 1e-9,
                    "query {qid}: {got_d} vs {}",
                    want_d2.sqrt()
                );
            }
        }
    }
}
