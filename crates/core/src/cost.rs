use crate::{AgreementGraph, SetLabel};
use asj_geom::Point;
use asj_grid::CellCoord;

/// Partition-local join kernel requested by a join spec (ablation A1 in
/// DESIGN.md). `Auto` — the default — defers the choice to the committed
/// [`KernelCostModel`] *per cell group*, following the runtime
/// join-location-selection argument of Chandra & Sudarshan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LocalKernel {
    /// All `r·s` candidates of a cell with immediate refinement — the
    /// paper's hash-join-then-filter execution (Algorithm 5, line 9).
    NestedLoop,
    /// Forward plane sweep along x (the kernel of the original PBSM and of
    /// the tuned in-memory variants of Tsitsigkos et al.).
    PlaneSweep,
    /// ε-sized bucket grid over the group with 3×3 neighborhood probing —
    /// wins when the group extent is much larger than ε (e.g. quadtree
    /// leaves).
    GridBucket,
    /// Pick the cheapest of the three per cell group from
    /// `(|R_i|, |S_i|, ε, group extent)` via the committed cost model.
    #[default]
    Auto,
}

impl LocalKernel {
    /// CLI / config spelling of this kernel.
    pub fn name(self) -> &'static str {
        match self {
            LocalKernel::NestedLoop => "nested-loop",
            LocalKernel::PlaneSweep => "plane-sweep",
            LocalKernel::GridBucket => "grid-bucket",
            LocalKernel::Auto => "auto",
        }
    }
}

impl std::str::FromStr for LocalKernel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(match s {
            "nested-loop" => LocalKernel::NestedLoop,
            "plane-sweep" => LocalKernel::PlaneSweep,
            "grid-bucket" => LocalKernel::GridBucket,
            "auto" => LocalKernel::Auto,
            other => return Err(format!("unknown kernel '{other}'")),
        })
    }
}

/// The fixed kernel that actually executes a cell group once `Auto` has been
/// resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    NestedLoop,
    PlaneSweep,
    GridBucket,
}

/// Per-operation costs of the three local kernels, in nanoseconds.
///
/// The model predicts the time of joining one cell group of `r × s` points
/// whose union spans `extent_w × extent_h`:
///
/// * nested loop — `r·s · nl_pair`,
/// * plane sweep — `(r+s) · ps_point + r·s · min(1, 2ε/w) · ps_pair`
///   (the sweep scans only pairs inside the ε x-window; under a uniform
///   spread, that is a `2ε/w` fraction of all pairs),
/// * grid bucket — `(r+s) · bucket_point + r·s · min(1, 3ε/w) · min(1, 3ε/h)
///   · bucket_pair` (each probe scans the 3×3 ε-bucket neighborhood).
///
/// All three kernels run the same chunked ε-filter over a window of the
/// other side's coordinate lanes and differ in how they find the window, so
/// every `*_pair` constant prices one *scanned* lane of that filter — passing
/// the ε-window test or not — at the window lengths the kernel produces, and
/// every `*_point` constant prices finding one probe's windows.
///
/// [`KernelCostModel::default`] is the one set of constants: `Auto`'s picks
/// and LPT's cell weights are a pure function of `(r, s, ε, extent)`, with
/// no measurement at startup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelCostModel {
    /// Cost of one pair of `nested_loop_view`: one filter lane, the window
    /// being the whole other side.
    pub nl_pair: f64,
    /// Per-point cost of `sweep_view` outside the filter: advancing the two
    /// window pointers and entering the filter once per probe. Sorting is
    /// not included — the lanes arrive in ascending-`x` order.
    pub ps_point: f64,
    /// Cost of one pair *scanned* by `sweep_view`: a filter lane inside the
    /// ε x-window, whether or not it passes the `|Δy| ≤ ε` test.
    pub ps_pair: f64,
    /// Per-point cost of `bucket_probe_view` outside the filter: its share
    /// of the bucket sort of one side and of the three column lookups of
    /// each probe of the other.
    pub bucket_point: f64,
    /// Cost of one pair scanned by `bucket_probe_view`: a filter lane in the
    /// 3×3 bucket neighborhood (short windows, so a larger share of
    /// per-window overhead than `ps_pair`).
    pub bucket_pair: f64,
}

impl Default for KernelCostModel {
    /// Nanoseconds measured on a 2-vCPU Intel Xeon (Linux, rustc 1.95,
    /// release profile) at commit `9080787`: the per-field medians of 15
    /// processes of that commit's startup microbenchmark, which timed the
    /// three view kernels in counting mode on two presorted 512-point
    /// uniform lane sets of the unit square (best of 3 runs each) — at
    /// ε = 10⁻⁹, where no pair survives the window, for the `*_point`
    /// constants, and at ε = 0.05 for the `*_pair` ones. Rounded to four
    /// decimals.
    ///
    /// That commit's kernels were the portable instantiation of today's
    /// (`asj_index::kernels` also runs an AVX2 build of the same source on
    /// CPUs that have it, which scans a lane faster). The constants are
    /// kept as they were measured: they only weigh the kernels against
    /// each other, and re-measuring would move `Auto`'s picks — the
    /// benchmark's `index.kernel_picks_*` and A1's counters in
    /// `results/repro-quick.json` — for no change in what is computed.
    fn default() -> Self {
        KernelCostModel {
            nl_pair: 0.7287,
            ps_point: 3.0977,
            ps_pair: 0.9024,
            bucket_point: 96.3604,
            bucket_pair: 21.5498,
        }
    }
}

impl KernelCostModel {
    /// Below this many worst-case pairs a group is joined nested-loop
    /// unconditionally: no kernel setup can amortize. Kept deliberately tiny
    /// so `Auto` can inflate the candidate count over the prefiltering
    /// kernels by at most this much per group.
    pub const NL_TINY_PAIRS: u64 = 4;

    /// Predicted cost of joining an `r × s` group spanning
    /// `extent_w × extent_h` with `kind`.
    pub fn predict(
        &self,
        kind: KernelKind,
        r: u64,
        s: u64,
        eps: f64,
        extent_w: f64,
        extent_h: f64,
    ) -> f64 {
        let pairs = r as f64 * s as f64;
        let points = (r + s) as f64;
        let frac = |window: f64, extent: f64| {
            if extent > window {
                window / extent
            } else {
                1.0
            }
        };
        match kind {
            KernelKind::NestedLoop => pairs * self.nl_pair,
            KernelKind::PlaneSweep => {
                points * self.ps_point + pairs * frac(2.0 * eps, extent_w) * self.ps_pair
            }
            KernelKind::GridBucket => {
                points * self.bucket_point
                    + pairs
                        * frac(3.0 * eps, extent_w)
                        * frac(3.0 * eps, extent_h)
                        * self.bucket_pair
            }
        }
    }

    /// The per-group kernel decision of `LocalKernel::Auto`.
    ///
    /// Nested loop is eligible only where it cannot inflate the candidate
    /// count over the ε-window prefilter of the other two kernels: trivially
    /// small groups ([`Self::NL_TINY_PAIRS`]) and groups whose extent fits
    /// inside `ε × ε` (where every pair passes the window anyway). Everywhere
    /// else the choice is the cheaper of plane sweep and grid bucket — whose
    /// candidate counts are identical by construction.
    pub fn choose(&self, r: u64, s: u64, eps: f64, extent_w: f64, extent_h: f64) -> KernelKind {
        if r.saturating_mul(s) <= Self::NL_TINY_PAIRS {
            return KernelKind::NestedLoop;
        }
        let ps = self.predict(KernelKind::PlaneSweep, r, s, eps, extent_w, extent_h);
        let bucket = self.predict(KernelKind::GridBucket, r, s, eps, extent_w, extent_h);
        if extent_w <= eps && extent_h <= eps {
            let nl = self.predict(KernelKind::NestedLoop, r, s, eps, extent_w, extent_h);
            if nl <= ps && nl <= bucket {
                return KernelKind::NestedLoop;
            }
        }
        if ps <= bucket {
            KernelKind::PlaneSweep
        } else {
            KernelKind::GridBucket
        }
    }

    /// Resolves a requested kernel to the one that will execute the group.
    pub fn resolve(
        &self,
        requested: LocalKernel,
        r: u64,
        s: u64,
        eps: f64,
        extent_w: f64,
        extent_h: f64,
    ) -> KernelKind {
        match requested {
            LocalKernel::NestedLoop => KernelKind::NestedLoop,
            LocalKernel::PlaneSweep => KernelKind::PlaneSweep,
            LocalKernel::GridBucket => KernelKind::GridBucket,
            LocalKernel::Auto => self.choose(r, s, eps, extent_w, extent_h),
        }
    }

    /// LPT placement weight of a cell: the predicted cost of the kernel that
    /// will actually run there, scaled to an integer. Replaces the raw `r·s`
    /// of [`CellCost::cost`] so simulated makespans track the chosen kernel.
    pub fn lpt_weight(
        &self,
        requested: LocalKernel,
        r: u64,
        s: u64,
        eps: f64,
        extent_w: f64,
        extent_h: f64,
    ) -> u64 {
        if r == 0 || s == 0 {
            return 0;
        }
        let kind = self.resolve(requested, r, s, eps, extent_w, extent_h);
        let pred = self.predict(kind, r, s, eps, extent_w, extent_h);
        // ×16 keeps sub-unit predictions distinguishable after rounding.
        ((pred * 16.0).ceil() as u64).max(1)
    }
}

/// Estimated workload of one grid cell: the number of points of each dataset
/// assigned to it (natives plus replicas). The worst-case join cost of the
/// cell is the product `r · s` — the candidate pairs examined by the
/// partition-local join (Table 1 of the paper, and the LPT optimization
/// criterion of §6.2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellCost {
    pub r: u64,
    pub s: u64,
}

impl CellCost {
    /// Worst-case comparisons for the partition: `r · s`.
    #[inline]
    pub fn cost(&self) -> u64 {
        self.r * self.s
    }
}

/// Runs the adaptive assignment over both point collections and returns the
/// per-cell `(r, s)` tallies (dense, indexed by [`asj_grid::Grid::cell_index`]).
///
/// Used to reproduce Table 1, to estimate per-cell costs from samples for the
/// LPT scheduler, and in tests as a replication-count oracle.
pub fn cell_costs<'a, IR, IS>(graph: &AgreementGraph, r: IR, s: IS) -> Vec<CellCost>
where
    IR: IntoIterator<Item = &'a Point>,
    IS: IntoIterator<Item = &'a Point>,
{
    let mut costs = vec![CellCost::default(); graph.grid().num_cells()];
    let mut cells: Vec<CellCoord> = Vec::with_capacity(4);
    for &p in r {
        graph.assign(p, SetLabel::R, &mut cells);
        for c in &cells {
            costs[graph.grid().cell_index(*c)].r += 1;
        }
    }
    for &p in s {
        graph.assign(p, SetLabel::S, &mut cells);
        for c in &cells {
            costs[graph.grid().cell_index(*c)].s += 1;
        }
    }
    costs
}

/// A sample-driven *theoretical cost model* for the join (listed as future
/// work in §8 of the paper): predicts the number of candidate pairs the
/// partition-local nested-loop join will evaluate, by running the adaptive
/// assignment over the sampled points and extrapolating each cell's `r·s`
/// product by the sampling rates.
///
/// With sampling fractions `φ_r`, `φ_s`, a cell that holds `r̂` sampled R
/// points (natives + replicas) and `ŝ` sampled S points is predicted to cost
/// `(r̂/φ_r)·(ŝ/φ_s)` comparisons.
pub fn estimate_candidates<'a, IR, IS>(
    graph: &AgreementGraph,
    sample_r: IR,
    sample_s: IS,
    fraction_r: f64,
    fraction_s: f64,
) -> f64
where
    IR: IntoIterator<Item = &'a Point>,
    IS: IntoIterator<Item = &'a Point>,
{
    assert!(
        fraction_r > 0.0 && fraction_s > 0.0,
        "sampling fractions must be positive"
    );
    let costs = cell_costs(graph, sample_r, sample_s);
    costs
        .iter()
        .map(|c| (c.r as f64 / fraction_r) * (c.s as f64 / fraction_s))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AgreementPolicy, GridSample};
    use asj_geom::Rect;
    use asj_grid::{Grid, GridSpec};

    #[test]
    fn estimate_scales_by_sampling_fraction() {
        let g = Grid::new(GridSpec::new(Rect::new(0.0, 0.0, 10.0, 10.0), 1.0));
        let graph = AgreementGraph::build(&g, &GridSample::new(&g), AgreementPolicy::UniformR);
        let r = [Point::new(3.75, 3.75), Point::new(3.8, 3.8)];
        let s = [Point::new(3.7, 3.7)];
        // Full sample: exactly 2 * 1 = 2 candidates in cell (1,1).
        let full = estimate_candidates(&graph, r.iter(), s.iter(), 1.0, 1.0);
        assert_eq!(full, 2.0);
        // Treating the same points as a 50% / 25% sample quadruples /
        // doubles the extrapolated populations.
        let scaled = estimate_candidates(&graph, r.iter(), s.iter(), 0.5, 0.25);
        assert_eq!(scaled, (2.0 / 0.5) * (1.0 / 0.25));
    }

    #[test]
    fn auto_kernel_choice_follows_regimes() {
        let m = KernelCostModel::default();
        // Tiny groups: nested loop, no matter the extent.
        assert_eq!(m.choose(1, 2, 0.1, 100.0, 100.0), KernelKind::NestedLoop);
        assert_eq!(m.choose(0, 50, 0.1, 100.0, 100.0), KernelKind::NestedLoop);
        // Group inside an eps x eps box: every pair passes the window, so
        // nested loop wins (no setup cost).
        assert_eq!(m.choose(30, 30, 1.0, 0.5, 0.5), KernelKind::NestedLoop);
        // Mid-sized cell (~2 eps): the prefiltering kernels take over.
        let mid = m.choose(50, 50, 1.0, 2.0, 2.0);
        assert_ne!(mid, KernelKind::NestedLoop);
        // Extent of 200 eps in both axes with 100 K points a side: bucket
        // grid wins (it prunes in both axes, the sweep only in x; its sort
        // and column lookups amortize over the pairs it does not scan).
        assert_eq!(
            m.choose(100_000, 100_000, 0.1, 20.0, 20.0),
            KernelKind::GridBucket
        );
        // A tenth of the points on the same extent: the sweep's cheaper
        // per-point setup wins again.
        assert_eq!(
            m.choose(10_000, 10_000, 0.1, 20.0, 20.0),
            KernelKind::PlaneSweep
        );
        // Huge extent, few points: sweep's cheaper setup wins.
        assert_eq!(m.choose(8, 8, 0.1, 50.0, 50.0), KernelKind::PlaneSweep);
    }

    #[test]
    fn lpt_weight_tracks_resolved_kernel() {
        let m = KernelCostModel::default();
        assert_eq!(m.lpt_weight(LocalKernel::Auto, 0, 10, 1.0, 2.0, 2.0), 0);
        let nl = m.lpt_weight(LocalKernel::NestedLoop, 100, 100, 1.0, 20.0, 20.0);
        let auto = m.lpt_weight(LocalKernel::Auto, 100, 100, 1.0, 20.0, 20.0);
        // On a wide sparse cell the resolved kernel must predict cheaper
        // than the forced nested loop.
        assert!(auto < nl, "auto {auto} vs nested-loop {nl}");
        assert!(auto >= 1);
    }

    #[test]
    fn kernel_names_round_trip() {
        for k in [
            LocalKernel::NestedLoop,
            LocalKernel::PlaneSweep,
            LocalKernel::GridBucket,
            LocalKernel::Auto,
        ] {
            assert_eq!(k.name().parse::<LocalKernel>(), Ok(k));
        }
        assert!("quantum".parse::<LocalKernel>().is_err());
        assert_eq!(LocalKernel::default(), LocalKernel::Auto);
    }

    #[test]
    fn costs_count_natives_and_replicas() {
        let g = Grid::new(GridSpec::new(Rect::new(0.0, 0.0, 10.0, 10.0), 1.0));
        let graph = AgreementGraph::build(&g, &GridSample::new(&g), AgreementPolicy::UniformR);
        // One R point near the corner (replicated to 3 extra cells), one S
        // point in the middle of cell (1,1).
        let r = [Point::new(2.4, 2.4)];
        let s = [Point::new(3.75, 3.75)];
        let costs = cell_costs(&graph, r.iter(), s.iter());
        let total_r: u64 = costs.iter().map(|c| c.r).sum();
        let total_s: u64 = costs.iter().map(|c| c.s).sum();
        assert_eq!(total_r, 4); // native + 3 replicas
        assert_eq!(total_s, 1);
        let ci = g.cell_index(asj_grid::CellCoord { x: 1, y: 1 });
        assert_eq!(costs[ci], CellCost { r: 1, s: 1 });
        assert_eq!(costs[ci].cost(), 1);
    }
}
