use crate::queue::TenantSpec;
use asj_data::{DatasetSpec, PAPER_BBOX};
use asj_engine::Wire;
use asj_geom::Point;
use asj_join::Record;

/// How many points per side the estimator samples. Small enough that an
/// estimate costs microseconds, large enough that cell-density skew and
/// border-replication rates stabilize.
const SAMPLE_POINTS: usize = 2048;

/// Upper bound on the sampling grid's cells per axis — bounds the memory of
/// one estimate regardless of how fine the tenant's join grid is.
const MAX_GRID_AXIS: usize = 256;

/// Constants of the working-set estimator used for admission control. Like
/// `asj_core::KernelCostModel` they are committed; only `record_bytes` is
/// replaced per tenant, by a byte count of the tenant's own sampled records
/// ([`WorkingSetModel::calibrated`]) — a count, never a timing.
///
/// The per-node working-set estimate of a tenant is
///
/// ```text
/// (|R| + |S|) · record_bytes · replication_rate / nodes
///     · skew · landing_factor · headroom
/// ```
///
/// where `replication_rate` and `skew` come from a deterministic sample of
/// the tenant's own generated inputs: each sampled point contributes its
/// ε-neighborhood cell-overlap count (how many grid cells a record landing
/// near a border replicates into), and `skew` is the sampled peak-over-mean
/// cell density, capped at [`WorkingSetModel::max_skew`] because hash
/// placement spreads hot cells across nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkingSetModel {
    /// Wire-encoded bytes of one record. The default is the measured size of
    /// a payload-free [`Record`]; [`WorkingSetModel::calibrated`] replaces it
    /// with the mean over a real sample.
    pub record_bytes: f64,
    /// Copies of a shuffled byte co-resident during a stage (map-side
    /// buckets plus the landing partition).
    pub landing_factor: f64,
    /// Safety margin over the point estimate.
    pub headroom: f64,
    /// Cap on the sampled density-skew multiplier.
    pub max_skew: f64,
}

impl Default for WorkingSetModel {
    fn default() -> Self {
        WorkingSetModel {
            record_bytes: Record::new(0, Point::new(0.0, 0.0)).encoded_size() as f64,
            landing_factor: 2.0,
            headroom: 1.25,
            max_skew: 4.0,
        }
    }
}

impl WorkingSetModel {
    /// Replaces the default per-record size with the mean wire-encoded size
    /// of `sample`. An empty sample keeps the default.
    pub fn calibrated(sample: &[Record]) -> Self {
        let mut model = WorkingSetModel::default();
        if !sample.is_empty() {
            let total: usize = sample.iter().map(Wire::encoded_size).sum();
            model.record_bytes = total as f64 / sample.len() as f64;
        }
        model
    }

    /// Estimated per-node working set of `tenant`'s join on `nodes` nodes,
    /// in bytes. Deterministic: the sample is generated from the tenant's
    /// own seeds. This is advisory planning for admission control — the
    /// [`MemoryAccountant`](asj_engine::MemoryAccountant) stays the hard
    /// enforcement, spilling if the estimate was optimistic.
    pub fn estimate(&self, tenant: &TenantSpec, nodes: usize) -> u64 {
        assert!(nodes > 0, "cluster needs at least one node");
        let sample_n = tenant.cardinality.min(SAMPLE_POINTS);
        let r = sample_points(tenant, tenant.seed, sample_n);
        let s = sample_points(tenant, tenant.seed.wrapping_add(1), sample_n);

        let cell = (tenant.grid_factor * tenant.eps).max(f64::EPSILON);
        let (replication, skew) = sampled_replication_and_skew(&[&r, &s], cell, tenant.eps);
        let skew = skew.clamp(1.0, self.max_skew);

        let total_records = 2.0 * tenant.cardinality as f64;
        let per_node = total_records * self.record_bytes * replication / nodes as f64
            * skew
            * self.landing_factor
            * self.headroom;
        (per_node.ceil() as u64).max(1)
    }
}

/// Convenience: estimate with a model calibrated on the tenant's own sampled
/// records (payload-free, like the serve pipeline generates them).
pub fn estimate_working_set(tenant: &TenantSpec, nodes: usize) -> u64 {
    WorkingSetModel::default().estimate(tenant, nodes)
}

fn sample_points(tenant: &TenantSpec, seed: u64, n: usize) -> Vec<Point> {
    DatasetSpec {
        name: "serve-sample",
        kind: tenant.kind,
        cardinality: n,
        seed,
        bbox: PAPER_BBOX,
        sigma_scale: 1.0,
    }
    .points()
}

/// Mean ε-neighborhood cell-overlap per sampled point (the replication-rate
/// estimate) and the peak-over-mean occupancy of the sampling grid (the
/// density skew). The grid uses the tenant's own cell side, capped at
/// [`MAX_GRID_AXIS`] cells per axis.
fn sampled_replication_and_skew(sides: &[&Vec<Point>], cell: f64, eps: f64) -> (f64, f64) {
    let bbox = PAPER_BBOX;
    let width = bbox.max_x - bbox.min_x;
    let height = bbox.max_y - bbox.min_y;
    let cols = ((width / cell).ceil() as usize).clamp(1, MAX_GRID_AXIS);
    let rows = ((height / cell).ceil() as usize).clamp(1, MAX_GRID_AXIS);
    let cell_x = width / cols as f64;
    let cell_y = height / rows as f64;

    let mut counts = vec![0u64; cols * rows];
    let mut copies = 0.0f64;
    let mut points = 0usize;
    for side in sides {
        for p in side.iter() {
            let fx = ((p.x - bbox.min_x) / cell_x).floor();
            let fy = ((p.y - bbox.min_y) / cell_y).floor();
            let cx = (fx as usize).min(cols - 1);
            let cy = (fy as usize).min(rows - 1);
            counts[cy * cols + cx] += 1;
            // Offset inside the cell; a point within ε of a border also
            // lands in the neighbor across it (cell ≥ 2ε keeps the two
            // borders of one axis from double-counting).
            let dx = (p.x - bbox.min_x) - fx * cell_x;
            let dy = (p.y - bbox.min_y) - fy * cell_y;
            let extra_x = usize::from(dx < eps || cell_x - dx < eps);
            let extra_y = usize::from(dy < eps || cell_y - dy < eps);
            copies += ((1 + extra_x) * (1 + extra_y)) as f64;
            points += 1;
        }
    }
    if points == 0 {
        return (1.0, 1.0);
    }
    let replication = copies / points as f64;
    let occupied: Vec<u64> = counts.into_iter().filter(|&c| c > 0).collect();
    let peak = occupied.iter().copied().max().unwrap_or(0) as f64;
    let mean = occupied.iter().sum::<u64>() as f64 / occupied.len().max(1) as f64;
    let skew = if mean > 0.0 { peak / mean } else { 1.0 };
    (replication, skew)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimates_are_deterministic_and_positive() {
        let t = TenantSpec::new("t", 0.4, 4_000);
        let a = estimate_working_set(&t, 4);
        let b = estimate_working_set(&t, 4);
        assert_eq!(a, b, "same tenant, same estimate");
        assert!(a > 0);
    }

    #[test]
    fn estimate_grows_with_cardinality_and_shrinks_with_nodes() {
        let small = TenantSpec::new("s", 0.4, 2_000);
        let big = TenantSpec::new("b", 0.4, 20_000);
        assert!(
            estimate_working_set(&big, 4) > estimate_working_set(&small, 4),
            "10x the records must estimate a larger working set"
        );
        assert!(
            estimate_working_set(&big, 12) < estimate_working_set(&big, 2),
            "more nodes shrink the per-node share"
        );
    }

    #[test]
    fn replication_rate_reflects_eps_border_overlap() {
        // A wider ε relative to the cell side puts more points inside a
        // border band, so the sampled replication rate must not shrink.
        let narrow = TenantSpec::new("n", 0.1, 4_000);
        let mut wide = TenantSpec::new("w", 0.1, 4_000);
        // Same cell side (grid_factor · eps), wider border band.
        wide.eps = 0.2;
        wide.grid_factor = 1.0;
        assert!(estimate_working_set(&wide, 4) >= estimate_working_set(&narrow, 4));
    }

    #[test]
    fn calibration_replaces_record_bytes() {
        let model = WorkingSetModel::calibrated(&[
            Record::with_payload(0, Point::new(0.0, 0.0), vec![0u8; 100]),
            Record::with_payload(1, Point::new(1.0, 1.0), vec![0u8; 200]),
        ]);
        let bare = Record::new(0, Point::new(0.0, 0.0)).encoded_size() as f64;
        assert_eq!(model.record_bytes, bare + 150.0, "mean of 100 and 200");
        assert_eq!(
            WorkingSetModel::calibrated(&[]).record_bytes,
            bare,
            "empty sample keeps the default"
        );
    }

    #[test]
    fn skew_is_capped() {
        // Gaussian clusters concentrate mass; the skew multiplier must stay
        // within max_skew of the uniform estimate's scale.
        let mut t = TenantSpec::new("g", 0.4, 4_000);
        t.kind = asj_data::GenKind::GaussianClusters;
        let uniform = TenantSpec::new("u", 0.4, 4_000);
        let model = WorkingSetModel::default();
        let ratio = model.estimate(&t, 4) as f64 / model.estimate(&uniform, 4) as f64;
        // Replication rates differ too, but the bulk of any gap is the
        // capped skew: the ratio stays within an order of magnitude.
        assert!(ratio < model.max_skew * 4.0, "ratio {ratio}");
    }
}
