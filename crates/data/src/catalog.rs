use crate::generators::{
    gaussian_cluster_params_scaled, gaussian_points, hydro_params, hydrography_points,
    parks_params, parks_points, uniform_points,
};
use asj_geom::{Point, Rect};

/// Minimum bounding rectangle of the paper's datasets (continental United
/// States, the extent of TIGER and the OSM extracts; the synthetic sets are
/// generated in the same MBR, §7.1).
pub const PAPER_BBOX: Rect = Rect {
    min_x: -124.85,
    min_y: 24.40,
    max_x: -66.89,
    max_y: 49.38,
};

/// Distribution family of a generated dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenKind {
    /// 30 Gaussian clusters, σ ∈ [0.1, 0.8] — the paper's SYNTHETIC/Gaussian.
    GaussianClusters,
    /// River polylines + lake blobs — stand-in for TIGER/Area Hydrography.
    Hydrography,
    /// Power-law urban clusters — stand-in for OSM/Parks.
    Parks,
    /// Uniform background (tests/ablations only).
    Uniform,
}

impl GenKind {
    /// CLI / queue-file spelling of this distribution family.
    pub fn name(self) -> &'static str {
        match self {
            GenKind::GaussianClusters => "gaussian",
            GenKind::Hydrography => "hydrography",
            GenKind::Parks => "parks",
            GenKind::Uniform => "uniform",
        }
    }
}

impl std::str::FromStr for GenKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(match s {
            "gaussian" => GenKind::GaussianClusters,
            "hydrography" => GenKind::Hydrography,
            "parks" => GenKind::Parks,
            "uniform" => GenKind::Uniform,
            other => return Err(format!("unknown generator kind '{other}'")),
        })
    }
}

/// A named, reproducible dataset: distribution, cardinality and seed.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Codename used in the paper's tables (R1, R2, S1, S2).
    pub name: &'static str,
    pub kind: GenKind,
    pub cardinality: usize,
    pub seed: u64,
    pub bbox: Rect,
    /// Scale applied to the Gaussian clusters' σ range (see
    /// [`Catalog::sigma_scale_for`]); 1.0 reproduces the paper's [0.1, 0.8].
    pub sigma_scale: f64,
}

/// A dataset's points, generated one at a time as they are read: what
/// [`DatasetSpec::stream`] returns and what a builder that lays points out
/// straight into their final place consumes.
pub type PointStream = Box<dyn ExactSizeIterator<Item = Point> + Send>;

impl DatasetSpec {
    /// The points of partition `part` out of `parts`, as a stream.
    fn partition_stream(&self, part: usize, parts: usize) -> PointStream {
        assert!(part < parts, "partition index out of range");
        let base = self.cardinality / parts;
        let extra = self.cardinality % parts;
        let n = base + usize::from(part < extra);
        let seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(part as u64);
        let bbox = self.bbox;
        match self.kind {
            GenKind::GaussianClusters => {
                let params = gaussian_cluster_params_scaled(bbox, 30, self.seed, self.sigma_scale);
                Box::new(gaussian_points(bbox, params, n, seed))
            }
            GenKind::Hydrography => {
                let params = hydro_params(bbox, self.seed);
                Box::new(hydrography_points(bbox, params, n, seed))
            }
            GenKind::Parks => {
                let params = parks_params(bbox, self.seed);
                Box::new(parks_points(bbox, params, n, seed))
            }
            GenKind::Uniform => Box::new(uniform_points(bbox, n, seed)),
        }
    }

    /// Points of partition `part` out of `parts` (cardinality is split as
    /// evenly as possible; earlier partitions take the remainder).
    /// Deterministic: the same `(spec, part, parts)` always yields the same
    /// points, and the union over partitions is the dataset.
    pub fn partition_points(&self, part: usize, parts: usize) -> Vec<Point> {
        self.partition_stream(part, parts).collect()
    }

    /// The whole dataset as one stream.
    pub fn stream(&self) -> PointStream {
        self.partition_stream(0, 1)
    }

    /// The whole dataset, generated in one piece.
    pub fn points(&self) -> Vec<Point> {
        self.stream().collect()
    }

    /// Same dataset scaled to a different cardinality.
    pub fn scaled(&self, factor: f64) -> DatasetSpec {
        DatasetSpec {
            cardinality: (self.cardinality as f64 * factor).round() as usize,
            ..self.clone()
        }
    }
}

/// The four datasets of Table 2, scaled down from the paper's cardinalities.
///
/// `base` is the cardinality of the synthetic sets (the paper's 100 M); the
/// real-data stand-ins keep the paper's ratios: |R1|/|S1| = 0.941,
/// |R2|/|S1| = 0.427.
///
/// # Example
///
/// ```
/// use asj_data::Catalog;
///
/// let catalog = Catalog::new(10_000);
/// let s1 = catalog.s1.points();
/// assert_eq!(s1.len(), 10_000);
/// assert!(s1.iter().all(|p| catalog.s1.bbox.contains(*p)));
/// // Deterministic: rebuilding yields identical data.
/// assert_eq!(Catalog::new(10_000).s1.points(), s1);
/// ```
#[derive(Debug, Clone)]
pub struct Catalog {
    pub r1: DatasetSpec,
    pub r2: DatasetSpec,
    pub s1: DatasetSpec,
    pub s2: DatasetSpec,
}

impl Catalog {
    /// σ scale for a downscaled reproduction: with `base` points instead of
    /// the paper's 100 M, ε is scaled by `sqrt(100 M / base)` to preserve
    /// points-per-cell; scaling σ by the *fourth root* (the geometric mean
    /// between keeping σ/world and keeping σ/cell constant) keeps clusters
    /// both clearly skewed and spanning multiple cells, as in the paper.
    pub fn sigma_scale_for(base: usize) -> f64 {
        assert!(base > 0);
        (100_000_000.0 / base as f64).powf(0.08)
    }

    pub fn new(base: usize) -> Self {
        let bbox = PAPER_BBOX;
        let sigma_scale = Self::sigma_scale_for(base);
        Catalog {
            r1: DatasetSpec {
                name: "R1",
                kind: GenKind::Hydrography,
                cardinality: (base as f64 * 0.941) as usize,
                seed: 101,
                bbox,
                sigma_scale,
            },
            r2: DatasetSpec {
                name: "R2",
                kind: GenKind::Parks,
                cardinality: (base as f64 * 0.427) as usize,
                seed: 202,
                bbox,
                sigma_scale,
            },
            s1: DatasetSpec {
                name: "S1",
                kind: GenKind::GaussianClusters,
                cardinality: base,
                seed: 303,
                bbox,
                sigma_scale,
            },
            s2: DatasetSpec {
                name: "S2",
                kind: GenKind::GaussianClusters,
                cardinality: base,
                seed: 404,
                bbox,
                sigma_scale,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_preserves_paper_ratios() {
        let c = Catalog::new(100_000);
        assert_eq!(c.s1.cardinality, 100_000);
        assert_eq!(c.s2.cardinality, 100_000);
        assert_eq!(c.r1.cardinality, 94_100);
        assert_eq!(c.r2.cardinality, 42_700);
        // S1 and S2 differ (different seeds).
        assert_ne!(c.s1.points()[..50], c.s2.points()[..50]);
    }

    #[test]
    fn partitioned_generation_covers_cardinality() {
        let c = Catalog::new(10_000);
        for spec in [&c.r1, &c.r2, &c.s1] {
            let total: usize = (0..8).map(|p| spec.partition_points(p, 8).len()).sum();
            assert_eq!(total, spec.cardinality, "{}", spec.name);
        }
    }

    #[test]
    fn partitions_are_deterministic_and_distinct() {
        let c = Catalog::new(10_000);
        let a = c.s1.partition_points(3, 8);
        let b = c.s1.partition_points(3, 8);
        assert_eq!(a, b);
        let other = c.s1.partition_points(4, 8);
        assert_ne!(a[..10], other[..10]);
    }

    #[test]
    fn scaled_changes_only_cardinality() {
        let c = Catalog::new(10_000);
        let s = c.s1.scaled(4.0);
        assert_eq!(s.cardinality, 40_000);
        assert_eq!(s.seed, c.s1.seed);
        // The cluster layout (derived from the seed) is unchanged: scaling
        // the data multiplies density, not geometry.
        let small = c.s1.points();
        let big = s.points();
        assert_eq!(small.len() * 4, big.len());
    }

    #[test]
    fn paper_bbox_is_continental_us() {
        assert!(PAPER_BBOX.width() > 50.0 && PAPER_BBOX.height() > 20.0);
        assert!(PAPER_BBOX.contains(Point::new(-100.0, 40.0)));
    }
}
