use crate::generators::{
    block_points, gaussian_cluster_params_scaled, gaussian_draw, hydro_params, hydrography_draw,
    parks_draw, parks_params, uniform_point,
};
use asj_geom::{Point, Rect};
use std::ops::Range;

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
/// [`DatasetSpec::block_stream`] returns and what a builder that lays points
/// out straight into their final place consumes.
pub type PointStream = Box<dyn ExactSizeIterator<Item = Point> + Send>;

impl DatasetSpec {
    /// Points `range` of the dataset as a stream: the one generator entry
    /// point. Point `i` is drawn from the RNG of block `⌊i / 1024⌋`, seeded
    /// by the dataset seed and the block, around a layout (clusters, rivers,
    /// parks) drawn from the seed alone — so any range, on any thread,
    /// yields the points the whole dataset holds there.
    pub fn block_stream(&self, range: Range<usize>) -> PointStream {
        assert!(range.end <= self.cardinality, "range past the dataset");
        let (bbox, seed) = (self.bbox, self.seed);
        match self.kind {
            GenKind::GaussianClusters => {
                let params = gaussian_cluster_params_scaled(bbox, 30, seed, self.sigma_scale);
                Box::new(block_points(range, seed, gaussian_draw(bbox, params)))
            }
            GenKind::Hydrography => {
                let draw = hydrography_draw(bbox, hydro_params(bbox, seed));
                Box::new(block_points(range, seed, draw))
            }
            GenKind::Parks => {
                let draw = parks_draw(bbox, parks_params(bbox, seed));
                Box::new(block_points(range, seed, draw))
            }
            GenKind::Uniform => Box::new(block_points(range, seed, move |rng| {
                uniform_point(rng, bbox)
            })),
        }
    }

    /// The whole dataset as one stream.
    pub fn stream(&self) -> PointStream {
        self.block_stream(0..self.cardinality)
    }

    /// The whole dataset, generated in one piece.
    pub fn points(&self) -> Vec<Point> {
        self.stream().collect()
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
    use proptest::prelude::*;

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

    const KINDS: [GenKind; 4] = [
        GenKind::GaussianClusters,
        GenKind::Hydrography,
        GenKind::Parks,
        GenKind::Uniform,
    ];

    /// A cardinality at or next to a block border, or anywhere.
    fn cardinality() -> impl Strategy<Value = usize> {
        prop_oneof![
            Just(0usize),
            Just(1),
            Just(1023),
            Just(1024),
            Just(1025),
            Just(3073),
            0usize..5000,
        ]
    }

    /// A cut in `0..=n` from a raw draw: anywhere, or within two of a
    /// block border.
    fn cut(n: usize, (raw, near_border, off): (u64, bool, i32)) -> usize {
        let at = (raw % (n as u64 + 1)) as usize;
        if near_border {
            let border = (at + 512) / 1024 * 1024;
            border.saturating_add_signed(off as isize).min(n)
        } else {
            at
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        /// Any range of a dataset, also one that starts or ends inside a
        /// block or crosses block borders, is that stretch of the whole
        /// stream.
        #[test]
        fn a_block_stream_is_its_stretch_of_the_stream(
            kind in 0usize..4,
            n in cardinality(),
            x in (any::<u64>(), any::<bool>(), -2i32..3),
            y in (any::<u64>(), any::<bool>(), -2i32..3),
            seed in any::<u64>(),
        ) {
            let spec = DatasetSpec {
                name: "t",
                kind: KINDS[kind],
                cardinality: n,
                seed,
                bbox: PAPER_BBOX,
                sigma_scale: 1.0,
            };
            let (x, y) = (cut(n, x), cut(n, y));
            let (a, b) = (x.min(y), x.max(y));
            let got: Vec<Point> = spec.block_stream(a..b).collect();
            let want: Vec<Point> = spec.stream().skip(a).take(b - a).collect();
            prop_assert_eq!(got.len(), b - a);
            prop_assert_eq!(got, want);
            prop_assert_eq!(spec.stream().len(), n);
        }
    }

    #[test]
    fn paper_bbox_is_continental_us() {
        assert!(PAPER_BBOX.width() > 50.0 && PAPER_BBOX.height() > 20.0);
        assert!(PAPER_BBOX.contains(Point::new(-100.0, 40.0)));
    }
}
