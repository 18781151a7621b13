use crate::pipeline::{for_each_cogroup, run_plan, Blocks, JoinPlan, KernelTally};
use crate::sink::Emitter;
use crate::{JoinError, JoinOutput, JoinSpec};
use asj_core::KernelCostModel;
use asj_engine::{ensure_remaining, Cluster, Dataset, ExecStats, HashPartitioner, Wire, WireError};
use asj_geom::{Point, Polygon, Polyline, Shape};
use asj_grid::{CellCoord, Grid, GridSpec};
use asj_index::kernels;
use bytes::{Buf, BufMut};
use std::time::Duration;

/// A spatial object with extent: the generalization beyond point data that
/// the paper defers to future work (§8: "extend the abstraction … for other
/// spatial objects, such as polygons and polylines").
#[derive(Debug, Clone, PartialEq)]
pub struct ExtentRecord {
    pub id: u64,
    pub shape: Shape,
}

impl ExtentRecord {
    pub fn new(id: u64, shape: Shape) -> Self {
        ExtentRecord { id, shape }
    }
}

fn encode_points(pts: &[Point], buf: &mut impl BufMut) {
    buf.put_u32_le(pts.len() as u32);
    for p in pts {
        buf.put_f64_le(p.x);
        buf.put_f64_le(p.y);
    }
}

fn decode_points(buf: &mut impl Buf) -> Result<Vec<Point>, WireError> {
    let n = u32::try_decode(buf)? as usize;
    // Validate against the remaining bytes before allocating, so a corrupt
    // count cannot trigger a giant allocation or an underflow panic.
    ensure_remaining(buf, 16 * n)?;
    Ok((0..n)
        .map(|_| Point::new(buf.get_f64_le(), buf.get_f64_le()))
        .collect())
}

impl Wire for ExtentRecord {
    fn encoded_size(&self) -> usize {
        let vertices = match &self.shape {
            Shape::Point(_) => 1,
            Shape::Polyline(l) => l.points().len(),
            Shape::Polygon(g) => g.ring().len(),
        };
        8 + 1 + 4 + 16 * vertices
    }

    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u64_le(self.id);
        match &self.shape {
            Shape::Point(p) => {
                buf.put_u8(0);
                encode_points(std::slice::from_ref(p), buf);
            }
            Shape::Polyline(l) => {
                buf.put_u8(1);
                encode_points(l.points(), buf);
            }
            Shape::Polygon(g) => {
                buf.put_u8(2);
                encode_points(g.ring(), buf);
            }
        }
    }

    fn try_decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        let id = u64::try_decode(buf)?;
        let tag = u8::try_decode(buf)?;
        let pts = decode_points(buf)?;
        let shape = match tag {
            0 => Shape::Point(
                *pts.first()
                    .ok_or_else(|| WireError::Malformed("point shape with no vertex".into()))?,
            ),
            1 => Shape::Polyline(Polyline::new(pts)),
            2 => Shape::Polygon(Polygon::new(pts)),
            other => {
                return Err(WireError::Malformed(format!("unknown shape tag {other}")));
            }
        };
        Ok(ExtentRecord { id, shape })
    }
}

/// Distributed ε-distance join over objects **with extent** (points,
/// polylines, polygons).
///
/// MASJ scheme with reference-point duplicate avoidance, the classical
/// technique for extended objects (Dittrich & Seeger; used by SJMR and
/// Sedona): side A is assigned to every grid cell intersecting its envelope
/// expanded by ε, side B to every cell intersecting its envelope. For a
/// result pair the two regions overlap, and the pair is reported only by the
/// cell containing the *reference point* — the min-corner of
/// `env(a).expand(ε) ∩ env(b)` — which both sides are guaranteed to be
/// assigned to. Envelope intersection pre-filters the exact (segment-level)
/// distance refinement.
///
/// Adaptive agreements for extended objects remain open research (the point
/// framework's quartet geometry assumes an object occupies one native cell);
/// this entry point provides the substrate and baseline the generalization
/// would be measured against.
pub fn extent_join(
    cluster: &Cluster,
    spec: &JoinSpec,
    a: Vec<ExtentRecord>,
    b: Vec<ExtentRecord>,
) -> Result<JoinOutput, JoinError> {
    spec.validate()?;
    let grid = Grid::new(GridSpec::with_factor(spec.bbox, spec.eps, spec.grid_factor));
    let broadcast_bytes = grid.broadcast_bytes();
    let grid = &cluster.broadcast(grid);
    let (eps, kernel) = (spec.eps, spec.kernel);
    // Side A is assigned by its ε-expanded envelope, side B by its envelope.
    let envelope = |expand: f64| {
        move |rec: &ExtentRecord, cells: &mut Vec<u64>, scratch: &mut Vec<CellCoord>| {
            scratch.clear();
            grid.push_cells_intersecting(rec.shape.envelope().expand(expand), scratch);
            cells.extend(scratch.iter().map(|&c| grid.cell_index(c) as u64));
        }
    };
    let model = KernelCostModel::default();
    let e2 = eps * eps;
    // The envelope kernel enumerates candidate pairs (all of them under a
    // nested loop, only overlap-surviving ones under the sweep); the callback
    // applies the envelope filter, the reference-point dedup and the exact
    // distance.
    let local_join = |pa: &Blocks<ExtentRecord>, pb: &Blocks<ExtentRecord>| {
        let mut out = Emitter::new(&spec.sink);
        let mut tally = KernelTally::default();
        for_each_cogroup(pa, pb, |cell, avs, bvs| {
            let outcome = kernels::local_join_rects(
                kernel,
                &model,
                eps,
                avs,
                bvs,
                |a| a.shape.envelope().expand(eps),
                |b| b.shape.envelope(),
                |i, j| {
                    let (ra, rb) = (avs[i], bvs[j]);
                    let ea = ra.shape.envelope().expand(eps);
                    let eb = rb.shape.envelope();
                    if !ea.intersects(&eb) {
                        return false;
                    }
                    // Reference-point test before the expensive distance.
                    let refp = Point::new(ea.min_x.max(eb.min_x), ea.min_y.max(eb.min_y));
                    if grid.cell_index(grid.cell_of(refp)) as u64 != cell {
                        return false;
                    }
                    let hit = ra.shape.dist2(&rb.shape) <= e2;
                    if hit {
                        out.emit(ra.id, rb.id);
                    }
                    hit
                },
            );
            tally.record(outcome, avs.len() as u64 * bvs.len() as u64);
        });
        let (pairs, part) = out.finish();
        (pairs, (tally, part))
    };
    let plan = JoinPlan {
        name: "extent-join".to_string(),
        sink: &spec.sink,
        assign_r: &envelope(eps),
        assign_s: &envelope(0.0),
        partitioner: &HashPartitioner::new(spec.num_partitions),
        local_join: &local_join,
        broadcast_bytes,
        driver: Duration::ZERO,
        sampling: ExecStats::default(),
    };
    let rdd_a = Dataset::from_vec(a, spec.input_partitions);
    let rdd_b = Dataset::from_vec(b, spec.input_partitions);
    run_plan(cluster, rdd_a.into(), rdd_b.into(), plan)
}

/// Brute-force oracle for the extent join.
pub fn brute_force_extent_pairs(
    a: &[ExtentRecord],
    b: &[ExtentRecord],
    eps: f64,
) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    for ra in a {
        for rb in b {
            if ra.shape.within_eps(&rb.shape, eps) {
                out.push((ra.id, rb.id));
            }
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use asj_engine::ClusterConfig;
    use asj_geom::Rect;
    use bytes::BytesMut;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_shape(rng: &mut StdRng, extent: f64) -> Shape {
        let base = Point::new(rng.gen_range(0.0..extent), rng.gen_range(0.0..extent));
        match rng.gen_range(0..3) {
            0 => Shape::Point(base),
            1 => {
                let mut pts = vec![base];
                let mut p = base;
                for _ in 0..rng.gen_range(1..5) {
                    p = Point::new(
                        (p.x + rng.gen_range(-1.0..1.0)).clamp(0.0, extent),
                        (p.y + rng.gen_range(-1.0..1.0)).clamp(0.0, extent),
                    );
                    pts.push(p);
                }
                Shape::Polyline(Polyline::new(pts))
            }
            _ => {
                let w = rng.gen_range(0.1..1.5);
                let h = rng.gen_range(0.1..1.5);
                Shape::Polygon(Polygon::from_rect(Rect::new(
                    base.x.min(extent - w),
                    base.y.min(extent - h),
                    base.x.min(extent - w) + w,
                    base.y.min(extent - h) + h,
                )))
            }
        }
    }

    fn random_records(n: usize, seed: u64, extent: f64) -> Vec<ExtentRecord> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| ExtentRecord::new(i as u64, random_shape(&mut rng, extent)))
            .collect()
    }

    #[test]
    fn wire_roundtrip_for_all_shapes() {
        for rec in random_records(50, 5, 10.0) {
            let mut buf = BytesMut::new();
            rec.encode(&mut buf);
            assert_eq!(buf.len(), rec.encoded_size());
            let back = ExtentRecord::decode(&mut buf.freeze());
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn malformed_extent_bytes_decode_to_errors() {
        // Unknown shape tag.
        let mut buf = BytesMut::new();
        buf.put_u64_le(1);
        buf.put_u8(9);
        buf.put_u32_le(0);
        assert!(matches!(
            ExtentRecord::try_decode(&mut buf.freeze()),
            Err(WireError::Malformed(_))
        ));
        // Point shape with zero vertices.
        let mut buf = BytesMut::new();
        buf.put_u64_le(1);
        buf.put_u8(0);
        buf.put_u32_le(0);
        assert!(matches!(
            ExtentRecord::try_decode(&mut buf.freeze()),
            Err(WireError::Malformed(_))
        ));
        // Corrupt vertex count far beyond the buffer.
        let mut buf = BytesMut::new();
        buf.put_u64_le(1);
        buf.put_u8(2);
        buf.put_u32_le(u32::MAX);
        assert!(matches!(
            ExtentRecord::try_decode(&mut buf.freeze()),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn matches_brute_force_on_mixed_shapes() {
        let c = Cluster::new(ClusterConfig::with_threads(4, 2));
        let spec = JoinSpec::new(Rect::new(0.0, 0.0, 20.0, 20.0), 0.7).with_partitions(12);
        let a = random_records(150, 81, 20.0);
        let b = random_records(150, 82, 20.0);
        let expected = brute_force_extent_pairs(&a, &b, spec.eps);
        assert!(!expected.is_empty());
        let out = extent_join(&c, &spec, a, b).expect("join runs");
        let mut got = out.pairs.to_vec();
        got.sort_unstable();
        assert_eq!(got, expected);
        assert_eq!(out.algorithm, "extent-join");
        assert!(out.replicated[0] > 0, "expanded envelopes must replicate");
        assert!(
            out.metrics.broadcast_bytes > 0,
            "grid broadcast must be metered"
        );
    }

    #[test]
    fn intersecting_objects_are_found_at_eps_zero_distance() {
        let c = Cluster::new(ClusterConfig::with_threads(2, 1));
        let spec = JoinSpec::new(Rect::new(0.0, 0.0, 10.0, 10.0), 0.5).with_partitions(4);
        // A polyline crossing a polygon: distance 0 regardless of eps.
        let a = vec![ExtentRecord::new(
            0,
            Shape::Polyline(Polyline::new(vec![
                Point::new(1.0, 3.0),
                Point::new(6.0, 3.0),
            ])),
        )];
        let b = vec![ExtentRecord::new(
            0,
            Shape::Polygon(Polygon::from_rect(Rect::new(3.0, 1.0, 4.5, 5.0))),
        )];
        let out = extent_join(&c, &spec, a, b).expect("join runs");
        assert_eq!(out.pairs.to_vec(), vec![(0, 0)]);
    }

    #[test]
    fn large_objects_spanning_many_cells_report_once() {
        let c = Cluster::new(ClusterConfig::with_threads(2, 2));
        let spec = JoinSpec::new(Rect::new(0.0, 0.0, 20.0, 20.0), 0.5).with_partitions(8);
        // A long river crossing most of the space, near a big park.
        let a = vec![ExtentRecord::new(
            7,
            Shape::Polyline(Polyline::new(vec![
                Point::new(0.5, 10.0),
                Point::new(8.0, 11.0),
                Point::new(19.5, 9.5),
            ])),
        )];
        let b = vec![ExtentRecord::new(
            9,
            Shape::Polygon(Polygon::from_rect(Rect::new(5.0, 11.2, 15.0, 18.0))),
        )];
        let expected = brute_force_extent_pairs(&a, &b, spec.eps);
        let out = extent_join(&c, &spec, a, b).expect("join runs");
        let mut got = out.pairs.to_vec();
        got.sort_unstable();
        assert_eq!(got, expected, "exactly-once despite multi-cell assignment");
    }
}
