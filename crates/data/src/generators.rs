use asj_geom::{Point, Rect};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// Points per generation block: point `i` of a dataset is drawn from the RNG
/// of block `i / BLOCK_POINTS`.
pub(crate) const BLOCK_POINTS: usize = 1024;

/// The seed of block `block`'s RNG: the dataset seed and the block index
/// through SplitMix64's finaliser, so neighbouring blocks, and datasets
/// whose seeds differ by one, start from unrelated states.
fn block_seed(seed: u64, block: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(block as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Points `range` of a dataset whose point `i` is the next `draw` from
/// block `i / BLOCK_POINTS`'s RNG, generated as they are read. A range that
/// starts inside a block replays the block's earlier draws first, so every
/// range yields the points the whole dataset holds there.
pub(crate) fn block_points(
    range: Range<usize>,
    seed: u64,
    mut draw: impl FnMut(&mut SmallRng) -> Point,
) -> impl ExactSizeIterator<Item = Point> {
    let first = range.start / BLOCK_POINTS;
    let mut rng = SmallRng::seed_from_u64(block_seed(seed, first));
    for _ in first * BLOCK_POINTS..range.start {
        draw(&mut rng);
    }
    range.map(move |i| {
        if i % BLOCK_POINTS == 0 {
            rng = SmallRng::seed_from_u64(block_seed(seed, i / BLOCK_POINTS));
        }
        draw(&mut rng)
    })
}

/// One standard normal variate via Box–Muller (the `rand_distr` crate is
/// intentionally not a dependency; two uniforms suffice).
fn std_normal(rng: &mut SmallRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// A point uniform in `bbox`: x drawn first, then y.
pub(crate) fn uniform_point(rng: &mut SmallRng, bbox: Rect) -> Point {
    let x = rng.gen_range(bbox.min_x..bbox.max_x);
    Point::new(x, rng.gen_range(bbox.min_y..bbox.max_y))
}

fn diagonal(bbox: Rect) -> f64 {
    (bbox.width().powi(2) + bbox.height().powi(2)).sqrt()
}

/// Samples around `center` with deviation `sigma`, clamped into the bbox
/// after a few rejection attempts (keeps border cells from accumulating
/// clipped mass without ever looping unboundedly).
fn gaussian_point(rng: &mut SmallRng, bbox: Rect, center: Point, sigma: f64) -> Point {
    for _ in 0..8 {
        let p = Point::new(
            center.x + sigma * std_normal(rng),
            center.y + sigma * std_normal(rng),
        );
        if bbox.contains(p) {
            return p;
        }
    }
    Point::new(
        (center.x + sigma * std_normal(rng)).clamp(bbox.min_x, bbox.max_x),
        (center.y + sigma * std_normal(rng)).clamp(bbox.min_y, bbox.max_y),
    )
}

/// Cluster parameters shared by all blocks of a Gaussian dataset: centers
/// uniform in the bounding box, standard deviation per cluster drawn from
/// [0.1, 0.8] (§7.1 of the paper; the σ range is in the same coordinate
/// units as the data space) times `sigma_scale`. Downscaled reproductions
/// scale ε up to preserve points-per-cell; scaling σ alongside preserves the
/// paper's clusters-span-multiple-cells geometry (see DESIGN.md).
#[derive(Debug, Clone)]
pub(crate) struct GenParams {
    centers: Vec<Point>,
    sigmas: Vec<f64>,
}

pub(crate) fn gaussian_cluster_params_scaled(
    bbox: Rect,
    clusters: usize,
    seed: u64,
    sigma_scale: f64,
) -> GenParams {
    assert!(sigma_scale > 0.0 && sigma_scale.is_finite());
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xC1A5_7E85_EED5_u64);
    let centers = (0..clusters)
        .map(|_| uniform_point(&mut rng, bbox))
        .collect();
    let sigmas = (0..clusters)
        .map(|_| rng.gen_range(0.1..0.8) * sigma_scale)
        .collect();
    GenParams { centers, sigmas }
}

/// One point of a Gaussian dataset: a cluster, then a point around it.
pub(crate) fn gaussian_draw(bbox: Rect, params: GenParams) -> impl Fn(&mut SmallRng) -> Point {
    move |rng| {
        let c = rng.gen_range(0..params.centers.len());
        gaussian_point(rng, bbox, params.centers[c], params.sigmas[c])
    }
}

/// River-like layout shared by all blocks: random-walk polylines (rivers)
/// plus compact blobs (lakes).
#[derive(Debug, Clone)]
pub(crate) struct HydroParams {
    /// Vertices of each river polyline.
    rivers: Vec<Vec<Point>>,
    /// (center, radius) of each lake.
    lakes: Vec<(Point, f64)>,
}

pub(crate) fn hydro_params(bbox: Rect, seed: u64) -> HydroParams {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x4D7D_0B10);
    let diag = diagonal(bbox);
    let step = diag / 150.0;
    let rivers = (0..40)
        .map(|_| {
            let mut p = uniform_point(&mut rng, bbox);
            let mut dir: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
            let mut pts = Vec::with_capacity(80);
            for _ in 0..80 {
                pts.push(p);
                dir += rng.gen_range(-0.5..0.5);
                p = Point::new(
                    (p.x + step * dir.cos()).clamp(bbox.min_x, bbox.max_x),
                    (p.y + step * dir.sin()).clamp(bbox.min_y, bbox.max_y),
                );
            }
            pts
        })
        .collect();
    let lakes = (0..25)
        .map(|_| {
            let c = uniform_point(&mut rng, bbox);
            (c, rng.gen_range(diag / 400.0..diag / 60.0))
        })
        .collect();
    HydroParams { rivers, lakes }
}

/// One point of a hydrography dataset: on a river, or in a lake.
pub(crate) fn hydrography_draw(bbox: Rect, params: HydroParams) -> impl Fn(&mut SmallRng) -> Point {
    let jitter = diagonal(bbox) / 800.0;
    move |rng| {
        if rng.gen_bool(0.65) {
            // On a river: pick a polyline, a segment, a position along it.
            let river = &params.rivers[rng.gen_range(0..params.rivers.len())];
            let i = rng.gen_range(0..river.len() - 1);
            let t: f64 = rng.gen_range(0.0..1.0);
            let a = river[i];
            let b = river[i + 1];
            let base = Point::new(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y));
            Point::new(
                (base.x + jitter * std_normal(rng)).clamp(bbox.min_x, bbox.max_x),
                (base.y + jitter * std_normal(rng)).clamp(bbox.min_y, bbox.max_y),
            )
        } else {
            // In a lake blob.
            let (c, r) = params.lakes[rng.gen_range(0..params.lakes.len())];
            gaussian_point(rng, bbox, c, r)
        }
    }
}

/// Park-like layout: many urban clusters whose populations follow a power
/// law, plus a thin uniform background.
#[derive(Debug, Clone)]
pub(crate) struct ParksParams {
    centers: Vec<Point>,
    radii: Vec<f64>,
    /// Cumulative distribution over clusters (power-law weights).
    cdf: Vec<f64>,
}

pub(crate) fn parks_params(bbox: Rect, seed: u64) -> ParksParams {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9A55_77A2);
    let diag = diagonal(bbox);
    let k = 120usize;
    let centers = (0..k).map(|_| uniform_point(&mut rng, bbox)).collect();
    let radii = (0..k)
        .map(|_| rng.gen_range(diag / 500.0..diag / 80.0))
        .collect();
    // Zipf-like weights: w_i ∝ 1 / (i+1)^0.9.
    let weights: Vec<f64> = (0..k).map(|i| 1.0 / (i as f64 + 1.0).powf(0.9)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    let cdf = weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect();
    ParksParams {
        centers,
        radii,
        cdf,
    }
}

/// One point of a parks dataset: in a cluster picked by its power-law
/// weight, or in the background.
pub(crate) fn parks_draw(bbox: Rect, params: ParksParams) -> impl Fn(&mut SmallRng) -> Point {
    move |rng| {
        if rng.gen_bool(0.9) {
            let u: f64 = rng.gen_range(0.0..1.0);
            let c = params
                .cdf
                .partition_point(|&x| x < u)
                .min(params.centers.len() - 1);
            gaussian_point(rng, bbox, params.centers[c], params.radii[c])
        } else {
            uniform_point(rng, bbox)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bbox() -> Rect {
        Rect::new(-124.85, 24.40, -66.89, 49.38)
    }

    #[test]
    fn gaussian_params_match_paper_spec() {
        let p = gaussian_cluster_params_scaled(bbox(), 30, 7, 1.0);
        assert_eq!(p.centers.len(), 30);
        assert_eq!(p.sigmas.len(), 30);
        for &s in &p.sigmas {
            assert!((0.1..0.8).contains(&s));
        }
        for c in &p.centers {
            assert!(bbox().contains(*c));
        }
    }

    #[test]
    fn all_generators_stay_in_bbox() {
        let b = bbox();
        let gp = gaussian_cluster_params_scaled(b, 30, 1, 1.0);
        let hp = hydro_params(b, 2);
        let pp = parks_params(b, 3);
        for pts in [
            block_points(0..2000, 10, gaussian_draw(b, gp)).collect::<Vec<_>>(),
            block_points(0..2000, 11, |rng| uniform_point(rng, b)).collect(),
            block_points(0..2000, 12, hydrography_draw(b, hp)).collect(),
            block_points(0..2000, 13, parks_draw(b, pp)).collect(),
        ] {
            assert_eq!(pts.len(), 2000);
            for p in pts {
                assert!(b.contains(p), "{p:?} escaped bbox");
                assert!(p.is_finite());
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let b = bbox();
        let gp = gaussian_cluster_params_scaled(b, 30, 5, 1.0);
        let gen =
            |seed| block_points(0..500, seed, gaussian_draw(b, gp.clone())).collect::<Vec<_>>();
        let a = gen(42);
        let c = gen(42);
        assert_eq!(a, c);
        let d = gen(43);
        assert_ne!(a, d);
    }

    #[test]
    fn std_normal_has_sane_moments() {
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| std_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn skewed_generators_are_actually_skewed() {
        // Split the bbox into a 10×10 grid and compare max/mean occupancy:
        // clustered data must be far from uniform.
        let b = bbox();
        let occupancy = |pts: &[Point]| -> f64 {
            let mut counts = [0u32; 100];
            for p in pts {
                let cx = (((p.x - b.min_x) / b.width() * 10.0) as usize).min(9);
                let cy = (((p.y - b.min_y) / b.height() * 10.0) as usize).min(9);
                counts[cy * 10 + cx] += 1;
            }
            let max = counts.iter().copied().max().unwrap_or(0) as f64;
            max / (pts.len() as f64 / 100.0)
        };
        let gp = gaussian_cluster_params_scaled(b, 30, 21, 1.0);
        let hp = hydro_params(b, 22);
        let pp = parks_params(b, 23);
        let uni =
            occupancy(&block_points(0..20_000, 1, |rng| uniform_point(rng, b)).collect::<Vec<_>>());
        assert!(uni < 2.0, "uniform occupancy ratio {uni}");
        for (name, pts) in [
            (
                "gaussian",
                block_points(0..20_000, 2, gaussian_draw(b, gp)).collect::<Vec<_>>(),
            ),
            (
                "hydro",
                block_points(0..20_000, 3, hydrography_draw(b, hp)).collect(),
            ),
            (
                "parks",
                block_points(0..20_000, 4, parks_draw(b, pp)).collect(),
            ),
        ] {
            let ratio = occupancy(&pts);
            assert!(ratio > 3.0, "{name} not skewed enough: ratio {ratio}");
        }
    }
}
