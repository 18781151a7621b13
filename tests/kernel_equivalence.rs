//! The partition-local kernels against a brute-force double loop.
//!
//! Every `LocalKernel` runs through `kernels::local_join_view` — the entry
//! point of the ε-grid/LPiB pipeline — and must reproduce the oracle's exact
//! pair *sequence* (`i` ascending, then `j` ascending; the bucket probe
//! orders the `j` of one `i` by bucket, so its sequence is compared per `i`)
//! and its exact candidate count: all `r·s` pairs for the nested loop, the
//! pairs inside the `|Δx| ≤ ε ∧ |Δy| ≤ ε` window for the prefiltering
//! kernels.
//!
//! The kernels evaluate their ε-filter over fixed 64-lane chunks of the
//! other side's coordinate lanes, so side lengths are pinned around the chunk
//! edge. Coordinates and ε are multiples of 1/64: every sum, difference and
//! squared distance below is then exact in `f64`, which makes "a pair at
//! exactly ε" a certainty rather than a rounding accident and lets the oracle
//! state the window test in its textbook form.

use adaptive_spatial_join::core::{KernelCostModel, KernelKind};
use adaptive_spatial_join::index::kernels::{local_join_view, KernelStats};
use adaptive_spatial_join::index::PointsView;
use adaptive_spatial_join::join::LocalKernel;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const REQUESTS: [LocalKernel; 4] = [
    LocalKernel::NestedLoop,
    LocalKernel::PlaneSweep,
    LocalKernel::GridBucket,
    LocalKernel::Auto,
];

/// Side lengths around the 64-lane chunk edge.
const LENS: [usize; 6] = [0, 1, 63, 64, 65, 129];

/// One side of a cell group as ascending-`x` SoA lanes.
struct Side {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl Side {
    fn new(mut pts: Vec<(f64, f64)>) -> Side {
        pts.sort_by(|p, q| p.0.total_cmp(&q.0));
        Side {
            xs: pts.iter().map(|p| p.0).collect(),
            ys: pts.iter().map(|p| p.1).collect(),
        }
    }

    /// `n` lattice points (multiples of 1/64) in `[0, w] × [0, h]` lattice
    /// units; a few zeros are negative so both signs of zero meet.
    fn lattice(rng: &mut StdRng, n: usize, w: i64, h: i64) -> Side {
        let mut coord = |span: i64| match rng.gen_range(0..=span) {
            0 if rng.gen_range(0..2) == 0 => -0.0,
            units => units as f64 / 64.0,
        };
        Side::new((0..n).map(|_| (coord(w), coord(h))).collect())
    }

    fn view(&self) -> PointsView<'_> {
        PointsView::new(&self.xs, &self.ys)
    }

    fn len(&self) -> usize {
        self.xs.len()
    }
}

/// The oracle: every pair, one distance test. Returns the result pairs in
/// `(i, j)` order and the number of pairs inside the ε-window.
fn brute_force(a: &Side, b: &Side, eps: f64) -> (Vec<(usize, usize)>, u64) {
    let mut pairs = Vec::new();
    let mut window = 0u64;
    for i in 0..a.len() {
        for j in 0..b.len() {
            let (dx, dy) = (a.xs[i] - b.xs[j], a.ys[i] - b.ys[j]);
            window += (dx.abs() <= eps && dy.abs() <= eps) as u64;
            if dx * dx + dy * dy <= eps * eps {
                pairs.push((i, j));
            }
        }
    }
    (pairs, window)
}

/// Runs one request, collecting the emitted sequence.
fn collect(
    requested: LocalKernel,
    eps: f64,
    a: &Side,
    b: &Side,
) -> (Vec<(usize, usize)>, KernelKind, KernelStats) {
    let mut pairs = Vec::new();
    let model = KernelCostModel::default();
    let out = local_join_view(requested, &model, eps, a.view(), b.view(), |i, j| {
        pairs.push((i, j))
    });
    (pairs, out.kind, out.stats)
}

/// Checks every request on one group against the oracle.
fn check_group(a: &Side, b: &Side, eps: f64) -> Result<(), TestCaseError> {
    let (expected, window) = brute_force(a, b, eps);
    for requested in REQUESTS {
        let (mut pairs, kind, stats) = collect(requested, eps, a, b);
        let what = format!("{requested:?} -> {kind:?}, {} x {}", a.len(), b.len());
        let candidates = match kind {
            KernelKind::NestedLoop => a.len() as u64 * b.len() as u64,
            KernelKind::PlaneSweep | KernelKind::GridBucket => window,
        };
        prop_assert_eq!(stats.candidates, candidates, "candidates, {}", what);
        prop_assert_eq!(stats.results as usize, expected.len(), "results, {}", what);
        if kind == KernelKind::GridBucket {
            prop_assert!(
                pairs.windows(2).all(|w| w[0].0 <= w[1].0),
                "i order, {}",
                what
            );
            pairs.sort_unstable();
        }
        // Name the first divergence: the sequences run to 10^4 pairs.
        let agree = pairs
            .iter()
            .zip(&expected)
            .take_while(|(p, e)| p == e)
            .count();
        prop_assert!(
            pairs == expected,
            "pair sequence, {}: position {} is {:?}, oracle {:?} (lengths {} / {})",
            what,
            agree,
            pairs.get(agree),
            expected.get(agree),
            pairs.len(),
            expected.len()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Side lengths on both sides of the chunk edge, in a cell either
    /// narrower than ε (every sweep window is the whole other side, so the
    /// window length *is* the pinned length) or several ε wide (windows
    /// slide and end mid-chunk). The lattice is coarse enough that duplicate
    /// coordinates and pairs at exactly ε occur in every non-trivial case.
    #[test]
    fn every_kernel_matches_the_double_loop(
        len_a in 0usize..LENS.len(),
        len_b in 0usize..LENS.len(),
        eps_units in 1i64..5,
        narrow in 0u8..2,
        seed in any::<u64>(),
    ) {
        let eps_units = eps_units * 8;
        let eps = eps_units as f64 / 64.0;
        let width = if narrow == 1 { eps_units - 1 } else { 5 * eps_units };
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Side::lattice(&mut rng, LENS[len_a], width, 4 * eps_units);
        let b = Side::lattice(&mut rng, LENS[len_b], width, 4 * eps_units);
        check_group(&a, &b, eps)?;
    }
}

#[test]
fn pairs_at_exactly_eps_and_signed_zeros_are_results() {
    // 3-4-5 triangles put b[1] and b[2] at distance exactly ε = 5/64 of the
    // probe; b[3] is one lattice step beyond, b[0] coincides up to the sign
    // of zero.
    let a = Side::new(vec![(0.0, -0.0)]);
    let b = Side::new(vec![
        (-0.0, 0.0),
        (3.0 / 64.0, 4.0 / 64.0),
        (5.0 / 64.0, 0.0),
        (5.0 / 64.0, 1.0 / 64.0),
    ]);
    let eps = 5.0 / 64.0;
    assert_eq!(brute_force(&a, &b, eps), (vec![(0, 0), (0, 1), (0, 2)], 4));
    check_group(&a, &b, eps).expect("kernels agree with the oracle");
}

#[test]
fn counting_and_collecting_report_identical_stats() {
    let mut rng = StdRng::seed_from_u64(7);
    let a = Side::lattice(&mut rng, 129, 160, 64);
    let b = Side::lattice(&mut rng, 200, 160, 64);
    let model = KernelCostModel::default();
    let eps = 0.25;
    for requested in REQUESTS {
        let (pairs, kind, collected) = collect(requested, eps, &a, &b);
        // The sink `join_stage` passes when pairs are not materialised.
        let counted = local_join_view(requested, &model, eps, a.view(), b.view(), |_, _| {});
        assert_eq!(counted.kind, kind, "{requested:?}");
        assert_eq!(counted.stats, collected, "{requested:?}");
        assert_eq!(collected.results as usize, pairs.len(), "{requested:?}");
        assert!(!pairs.is_empty());
    }
}
