use asj_geom::{Point, Rect};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Cluster parameters shared by all partitions of a Gaussian dataset:
/// 30 centers uniform in the bounding box, standard deviation per cluster
/// drawn from [0.1, 0.8] (§7.1 of the paper; the σ range is in the same
/// coordinate units as the data space).
#[derive(Debug, Clone)]
pub struct GenParams {
    pub centers: Vec<Point>,
    pub sigmas: Vec<f64>,
}

/// Derives the shared cluster layout for a Gaussian dataset from its seed
/// (every partition must agree on it).
pub fn gaussian_cluster_params(bbox: Rect, clusters: usize, seed: u64) -> GenParams {
    gaussian_cluster_params_scaled(bbox, clusters, seed, 1.0)
}

/// [`gaussian_cluster_params`] with the per-cluster σ range scaled by
/// `sigma_scale`. Downscaled reproductions scale ε up to preserve
/// points-per-cell; scaling σ alongside preserves the paper's
/// clusters-span-multiple-cells geometry (see DESIGN.md).
pub fn gaussian_cluster_params_scaled(
    bbox: Rect,
    clusters: usize,
    seed: u64,
    sigma_scale: f64,
) -> GenParams {
    assert!(sigma_scale > 0.0 && sigma_scale.is_finite());
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xC1A5_7E85_EED5_u64);
    let centers = (0..clusters)
        .map(|_| {
            Point::new(
                rng.gen_range(bbox.min_x..bbox.max_x),
                rng.gen_range(bbox.min_y..bbox.max_y),
            )
        })
        .collect();
    let sigmas = (0..clusters)
        .map(|_| rng.gen_range(0.1..0.8) * sigma_scale)
        .collect();
    GenParams { centers, sigmas }
}

/// One standard normal variate via Box–Muller (the `rand_distr` crate is
/// intentionally not a dependency; two uniforms suffice).
fn std_normal(rng: &mut SmallRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
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

/// The `n` points one RNG stream seeded by `seed` yields, generated as they
/// are read. Every generator below is one of these.
fn point_stream(
    n: usize,
    seed: u64,
    mut next: impl FnMut(&mut SmallRng) -> Point,
) -> impl ExactSizeIterator<Item = Point> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(move |_| next(&mut rng))
}

pub(crate) fn gaussian_points(
    bbox: Rect,
    params: GenParams,
    n: usize,
    seed: u64,
) -> impl ExactSizeIterator<Item = Point> {
    point_stream(n, seed, move |rng| {
        let c = rng.gen_range(0..params.centers.len());
        gaussian_point(rng, bbox, params.centers[c], params.sigmas[c])
    })
}

pub(crate) fn uniform_points(
    bbox: Rect,
    n: usize,
    seed: u64,
) -> impl ExactSizeIterator<Item = Point> {
    point_stream(n, seed, move |rng| {
        Point::new(
            rng.gen_range(bbox.min_x..bbox.max_x),
            rng.gen_range(bbox.min_y..bbox.max_y),
        )
    })
}

/// River-like layout shared by all partitions: random-walk polylines (rivers)
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
    let diag = (bbox.width().powi(2) + bbox.height().powi(2)).sqrt();
    let step = diag / 150.0;
    let rivers = (0..40)
        .map(|_| {
            let mut p = Point::new(
                rng.gen_range(bbox.min_x..bbox.max_x),
                rng.gen_range(bbox.min_y..bbox.max_y),
            );
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
            let c = Point::new(
                rng.gen_range(bbox.min_x..bbox.max_x),
                rng.gen_range(bbox.min_y..bbox.max_y),
            );
            (c, rng.gen_range(diag / 400.0..diag / 60.0))
        })
        .collect();
    HydroParams { rivers, lakes }
}

pub(crate) fn hydrography_points(
    bbox: Rect,
    params: HydroParams,
    n: usize,
    seed: u64,
) -> impl ExactSizeIterator<Item = Point> {
    let diag = (bbox.width().powi(2) + bbox.height().powi(2)).sqrt();
    let jitter = diag / 800.0;
    point_stream(n, seed, move |rng| {
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
    })
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
    let diag = (bbox.width().powi(2) + bbox.height().powi(2)).sqrt();
    let k = 120usize;
    let centers = (0..k)
        .map(|_| {
            Point::new(
                rng.gen_range(bbox.min_x..bbox.max_x),
                rng.gen_range(bbox.min_y..bbox.max_y),
            )
        })
        .collect();
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

pub(crate) fn parks_points(
    bbox: Rect,
    params: ParksParams,
    n: usize,
    seed: u64,
) -> impl ExactSizeIterator<Item = Point> {
    point_stream(n, seed, move |rng| {
        if rng.gen_bool(0.9) {
            let u: f64 = rng.gen_range(0.0..1.0);
            let c = params
                .cdf
                .partition_point(|&x| x < u)
                .min(params.centers.len() - 1);
            gaussian_point(rng, bbox, params.centers[c], params.radii[c])
        } else {
            Point::new(
                rng.gen_range(bbox.min_x..bbox.max_x),
                rng.gen_range(bbox.min_y..bbox.max_y),
            )
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bbox() -> Rect {
        Rect::new(-124.85, 24.40, -66.89, 49.38)
    }

    #[test]
    fn gaussian_params_match_paper_spec() {
        let p = gaussian_cluster_params(bbox(), 30, 7);
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
        let gp = gaussian_cluster_params(b, 30, 1);
        let hp = hydro_params(b, 2);
        let pp = parks_params(b, 3);
        for pts in [
            gaussian_points(b, gp, 2000, 10).collect::<Vec<_>>(),
            uniform_points(b, 2000, 11).collect(),
            hydrography_points(b, hp, 2000, 12).collect(),
            parks_points(b, pp, 2000, 13).collect(),
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
        let gp = gaussian_cluster_params(b, 30, 5);
        let gen = |seed| gaussian_points(b, gp.clone(), 500, seed).collect::<Vec<_>>();
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
        let gp = gaussian_cluster_params(b, 30, 21);
        let hp = hydro_params(b, 22);
        let pp = parks_params(b, 23);
        let uni = occupancy(&uniform_points(b, 20_000, 1).collect::<Vec<_>>());
        assert!(uni < 2.0, "uniform occupancy ratio {uni}");
        for (name, pts) in [
            (
                "gaussian",
                gaussian_points(b, gp, 20_000, 2).collect::<Vec<_>>(),
            ),
            ("hydro", hydrography_points(b, hp, 20_000, 3).collect()),
            ("parks", parks_points(b, pp, 20_000, 4).collect()),
        ] {
            let ratio = occupancy(&pts);
            assert!(ratio > 3.0, "{name} not skewed enough: ratio {ratio}");
        }
    }
}
