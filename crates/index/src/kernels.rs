//! Partition-local ε-distance join kernels and the adaptive selector that
//! all distributed algorithms route through.
//!
//! After the shuffle, each partition holds the R and S records of one or more
//! grid cells; the kernel enumerates the result pairs of one cell group.
//! Every point kernel is a *window finder* around one shared primitive,
//! `filter_window`: a branch-free ε-filter of one probe point against a
//! contiguous run of the other side's flat `xs`/`ys` lanes.
//!
//! * `nested_loop_view` reproduces the paper's execution exactly: the local
//!   hash join on the cell key produces all `r × s` candidate pairs, which
//!   are immediately refined with the true distance (Algorithm 5, line 9).
//!   The window is the whole other side, so the per-cell cost is
//!   `|R_i| · |S_i|` — the cost model used by Table 1 and the LPT scheduler.
//! * `sweep_view` is the classic forward-sweep alternative (used by the
//!   original PBSM and by \[21\]): both sides ascend in `x`, so the window of
//!   each probe is found by two pointers that only ever move forward.
//! * `bucket_probe_view` sorts one side into ε-sized buckets and probes
//!   each point of the other side against the three bucket columns around
//!   it — it prunes in both axes and wins when the group extent dwarfs ε
//!   (quadtree leaves).
//!
//! [`local_join_view`] is the entry point of the columnar pipeline: it
//! resolves a requested [`LocalKernel`] (including `Auto`, which consults the
//! committed [`KernelCostModel`] constants per group using the *measured*
//! group extent) and runs the chosen kernel over [`PointsView`] lanes.
//! [`local_self_join`] is its one-sided twin over the same lanes, and
//! [`local_join_rects`] is the envelope (extent) variant.
//!
//! The point kernels and the filter are one source with no intrinsics,
//! compiled twice: for the portable target, and on x86-64 for AVX2.
//! `local_join_view` and `local_self_join` run the AVX2 one when
//! `is_x86_feature_detected!` finds it; both return the same pairs in the
//! same order and the same counts. The call into the AVX2 instantiation is
//! this crate's one `unsafe` block.
//!
//! Candidate-count semantics: the nested loop counts every `r·s` pair; the
//! plane sweep and the bucket grid count exactly the pairs passing the
//! `|Δx| ≤ ε ∧ |Δy| ≤ ε` window — by construction the two prefiltering
//! kernels report **identical** candidate counts, and `Auto` only picks the
//! nested loop where its count cannot exceed theirs (tiny groups, or groups
//! whose extent fits in an ε × ε box so every pair passes the window).

use crate::batch::PointsView;
use asj_core::{KernelCostModel, KernelKind, LocalKernel};
use asj_geom::Rect;
use std::ops::Range;

/// Result-pair statistics of one kernel invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Candidate pairs whose exact distance was computed.
    pub candidates: u64,
    /// Pairs within ε (reported through the callback).
    pub results: u64,
}

impl KernelStats {
    pub fn merge(&mut self, other: &KernelStats) {
        self.candidates += other.candidates;
        self.results += other.results;
    }
}

/// What [`local_join_view`] (and variants) did for one cell group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalJoinOutcome {
    /// The kernel that actually ran (the resolution of `Auto`).
    pub kind: KernelKind,
    /// Candidate/result tallies of the run.
    pub stats: KernelStats,
}

// ---------------------------------------------------------------------------
// The ε-filter primitive
// ---------------------------------------------------------------------------

/// Lanes per filter chunk. The chunk's hit map (one byte per lane) is a
/// single cache line, and the fixed bound lets the compiler vectorise the
/// evaluation loop without a runtime width.
const CHUNK: usize = 64;

/// The ε-filter every point kernel runs: tests the probe `(ax, ay)` against
/// the window `xs`/`ys` of the other side, adds the window's candidates and
/// results to `stats`, and calls `on_hit` with the window position of every
/// result, ascending.
///
/// A lane is a *candidate* when it passes the `|Δy| ≤ ε` test — and, with
/// `CHECK_X`, the `|Δx| ≤ ε` test a sweep window already guarantees — and a
/// *hit* when it is a candidate within distance ε. Both are computed as data,
/// never branched on: the evaluation loop is straight-line arithmetic over a
/// chunk of lanes with integer adds for the two counters, so it vectorises
/// at whatever width the instantiation it is compiled into has (see
/// [`Isa`]), and the counters stay exact because each lane contributes the
/// same 0/1 the scalar tests would. Only the emission walk looks at
/// individual lanes, and only at hits.
///
/// The negated comparisons keep the scalar kernels' treatment of NaN
/// coordinates (a NaN `Δy` is a candidate, never a hit).
#[inline(always)]
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn filter_window<const CHECK_X: bool>(
    (ax, ay): (f64, f64),
    eps: f64,
    xs: &[f64],
    ys: &[f64],
    stats: &mut KernelStats,
    mut on_hit: impl FnMut(usize),
) {
    let e2 = eps * eps;
    for (c, (cx, cy)) in xs.chunks(CHUNK).zip(ys.chunks(CHUNK)).enumerate() {
        // Zeroed per chunk: the lanes past a short last chunk read as misses.
        let mut hits = [0u8; CHUNK];
        let (mut candidates, mut results) = (0u64, 0u64);
        for ((&x, &y), hit_lane) in cx.iter().zip(cy).zip(&mut hits) {
            let (dx, dy) = (x - ax, y - ay);
            let mut cand = !(dy.abs() > eps);
            if CHECK_X {
                cand &= !(dx.abs() > eps);
            }
            let hit = cand & (dx * dx + dy * dy <= e2);
            candidates += cand as u64;
            results += hit as u64;
            *hit_lane = hit as u8;
        }
        stats.candidates += candidates;
        stats.results += results;
        if results == 0 {
            continue;
        }
        for (w, word) in hits.chunks_exact(8).enumerate() {
            let mut lanes = u64::from_le_bytes(word.try_into().expect("8-byte word"));
            // At most 8 hit bytes per word: the explicit bound (rather than
            // `while lanes != 0`) lets the compiler delete this walk, and
            // with it the hit map, when `on_hit` is a no-op.
            for _ in 0..8 {
                if lanes == 0 {
                    break;
                }
                on_hit(c * CHUNK + w * 8 + lanes.trailing_zeros() as usize / 8);
                lanes &= lanes - 1;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Two-sided kernels over SoA lanes
// ---------------------------------------------------------------------------
//
// The loops below stream the flat `xs`/`ys` lanes of a [`PointsView`] (built
// once per partition by [`PointBatch`](crate::PointBatch)). `on_pair`
// receives *view positions* — `i` ascending, then `j` in window order —
// which callers map through the batch's parallel id lane.

/// Bounding extent `(width, height)` of the union of two views.
fn view_extent(a: PointsView<'_>, b: PointsView<'_>) -> (f64, f64) {
    let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
    for &x in a.xs.iter().chain(b.xs) {
        min_x = min_x.min(x);
        max_x = max_x.max(x);
    }
    for &y in a.ys.iter().chain(b.ys) {
        min_y = min_y.min(y);
        max_y = max_y.max(y);
    }
    ((max_x - min_x).max(0.0), (max_y - min_y).max(0.0))
}

/// All-pairs kernel: the window of every probe is the whole other side.
#[inline(always)]
fn nested_loop_view(
    a: PointsView<'_>,
    b: PointsView<'_>,
    eps: f64,
    mut on_pair: impl FnMut(usize, usize),
) -> KernelStats {
    let mut stats = KernelStats::default();
    for i in 0..a.len() {
        let probe = (a.xs[i], a.ys[i]);
        filter_window::<false>(probe, eps, b.xs, b.ys, &mut stats, |j| on_pair(i, j));
    }
    // The paper's local join refines every co-located pair, so all `r·s`
    // count. The filter's hits are unaffected by its `|Δy|` test: rounding
    // is monotone, so `Δx² + Δy² ≤ ε²` already implies `|Δy| ≤ ε`.
    stats.candidates = a.len() as u64 * b.len() as u64;
    stats
}

/// Forward plane-sweep. Both views must be in ascending-`x` order (the
/// [`PointBatch`](crate::PointBatch) group invariant): the window
/// `ax - ε ≤ bx ≤ ax + ε` of each probe is then a contiguous run of `b`
/// whose two ends only move forward as `ax` ascends, and the filter reads it
/// sequentially — one cache line carries eight lanes.
#[inline(always)]
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn sweep_view(
    a: PointsView<'_>,
    b: PointsView<'_>,
    eps: f64,
    mut on_pair: impl FnMut(usize, usize),
) -> KernelStats {
    let mut stats = KernelStats::default();
    let (mut lo, mut hi) = (0usize, 0usize);
    for i in 0..a.len() {
        let (ax, ay) = (a.xs[i], a.ys[i]);
        while lo < b.len() && b.xs[lo] < ax - eps {
            lo += 1;
        }
        hi = hi.max(lo);
        while hi < b.len() && !(b.xs[hi] > ax + eps) {
            hi += 1;
        }
        let (xs, ys) = (&b.xs[lo..hi], &b.ys[lo..hi]);
        filter_window::<false>((ax, ay), eps, xs, ys, &mut stats, |j| on_pair(i, lo + j));
    }
    stats
}

/// Bucket coordinate of a point relative to the group origin.
#[inline]
fn bucket_of(x: f64, y: f64, ox: f64, oy: f64, eps: f64) -> (i64, i64) {
    (
        ((x - ox) / eps).floor() as i64,
        ((y - oy) / eps).floor() as i64,
    )
}

/// Minimum corner of the union of two views: the ε-bucket grid's origin.
fn min_corner(a: PointsView<'_>, b: PointsView<'_>) -> (f64, f64) {
    let min = |p: &[f64], q: &[f64]| p.iter().chain(q).fold(f64::INFINITY, |m, &v| m.min(v));
    (min(a.xs, b.xs), min(a.ys, b.ys))
}

/// One side's points in ε-bucket order: `keys` ascends, the `xs`/`ys` lanes
/// are parallel to it (so every bucket — and every run of vertically
/// adjacent buckets — is one contiguous filter window), and `pos[k]` is the
/// view position lane `k` came from.
struct BucketLanes {
    keys: Vec<(i64, i64)>,
    xs: Vec<f64>,
    ys: Vec<f64>,
    pos: Vec<u32>,
}

/// Sort record of [`BucketLanes::build`]: `(bucket, (x, y, view position))`.
/// The unstable sort compares buckets only, so the order of points sharing a
/// bucket — and with it the kernel's pair order — is a function of this
/// record's shape; it is the one the pair files have always been written in.
type Bucketed = ((i64, i64), (f64, f64, u32));

impl BucketLanes {
    fn build(v: PointsView<'_>, ox: f64, oy: f64, eps: f64) -> BucketLanes {
        let mut order: Vec<Bucketed> =
            v.xs.iter()
                .zip(v.ys)
                .enumerate()
                .map(|(i, (&x, &y))| (bucket_of(x, y, ox, oy, eps), (x, y, i as u32)))
                .collect();
        order.sort_unstable_by_key(|p| p.0);
        BucketLanes {
            keys: order.iter().map(|p| p.0).collect(),
            xs: order.iter().map(|p| p.1 .0).collect(),
            ys: order.iter().map(|p| p.1 .1).collect(),
            pos: order.iter().map(|p| p.1 .2).collect(),
        }
    }

    /// Lane range covering buckets `(bx, by_lo ..= by_hi)`.
    fn range(&self, bx: i64, by_lo: i64, by_hi: i64) -> Range<usize> {
        let lo = self.keys.partition_point(|&b| b < (bx, by_lo));
        let hi = self.keys[lo..].partition_point(|&b| b <= (bx, by_hi)) + lo;
        lo..hi
    }

    /// Filters `probe` against the lanes of `range`; `on_hit` receives the
    /// view position of every result.
    #[inline(always)]
    fn filter(
        &self,
        probe: (f64, f64),
        eps: f64,
        range: Range<usize>,
        stats: &mut KernelStats,
        mut on_hit: impl FnMut(usize),
    ) {
        let (xs, ys) = (&self.xs[range.clone()], &self.ys[range.clone()]);
        let pos = &self.pos[range];
        filter_window::<true>(probe, eps, xs, ys, stats, |k| on_hit(pos[k] as usize));
    }
}

/// ε-bucket probe: `b` is sorted into ε × ε buckets (anchored at the group's
/// minimum corner) once, `a` streams its lanes and filters the three bucket
/// columns around each point. The filter applies the same
/// `|Δx| ≤ ε ∧ |Δy| ≤ ε` window as the plane sweep, so both report identical
/// candidate counts.
#[inline(always)]
fn bucket_probe_view(
    a: PointsView<'_>,
    b: PointsView<'_>,
    eps: f64,
    mut on_pair: impl FnMut(usize, usize),
) -> KernelStats {
    let mut stats = KernelStats::default();
    if a.is_empty() || b.is_empty() {
        return stats;
    }
    let (ox, oy) = min_corner(a, b);
    let sb = BucketLanes::build(b, ox, oy, eps);
    for i in 0..a.len() {
        let probe = (a.xs[i], a.ys[i]);
        let (bx, by) = bucket_of(probe.0, probe.1, ox, oy, eps);
        for dx in -1..=1i64 {
            let column = sb.range(bx + dx, by - 1, by + 1);
            sb.filter(probe, eps, column, &mut stats, |j| on_pair(i, j));
        }
    }
    stats
}

/// Self-join kernels over one ascending-`x` view: each unordered position
/// pair is emitted at most once.
#[inline(always)]
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn self_join_view(
    kind: KernelKind,
    eps: f64,
    v: PointsView<'_>,
    mut on_pair: impl FnMut(usize, usize),
) -> KernelStats {
    let n = v.len();
    let (xs, ys) = (v.xs, v.ys);
    let mut stats = KernelStats::default();
    match kind {
        // Window of lane `i`: every later lane.
        KernelKind::NestedLoop => {
            for i in 0..n {
                let (rest_x, rest_y) = (&xs[i + 1..], &ys[i + 1..]);
                filter_window::<false>((xs[i], ys[i]), eps, rest_x, rest_y, &mut stats, |j| {
                    on_pair(i, i + 1 + j)
                });
            }
            stats.candidates = (n as u64 * n as u64 - n as u64) / 2;
        }
        // Window of lane `i`: the later lanes with `x - xs[i] ≤ ε`, whose
        // end only moves forward as `xs[i]` ascends.
        KernelKind::PlaneSweep => {
            let mut hi = 0usize;
            for i in 0..n {
                hi = hi.max(i + 1);
                while hi < n && !(xs[hi] - xs[i] > eps) {
                    hi += 1;
                }
                let (win_x, win_y) = (&xs[i + 1..hi], &ys[i + 1..hi]);
                filter_window::<false>((xs[i], ys[i]), eps, win_x, win_y, &mut stats, |j| {
                    on_pair(i, i + 1 + j)
                });
            }
        }
        // Each unordered pair is visited exactly once: within a bucket by
        // lane order, across buckets from the lexicographically smaller one
        // via the four forward offsets.
        KernelKind::GridBucket => {
            const FORWARD: [(i64, i64); 4] = [(0, 1), (1, -1), (1, 0), (1, 1)];
            let (ox, oy) = min_corner(v, PointsView::empty());
            let sorted = BucketLanes::build(v, ox, oy, eps);
            for p in 0..n {
                let (bx, by) = sorted.keys[p];
                let probe = (sorted.xs[p], sorted.ys[p]);
                let i = sorted.pos[p] as usize;
                let rest_of_bucket = p + 1..sorted.range(bx, by, by).end;
                sorted.filter(probe, eps, rest_of_bucket, &mut stats, |j| on_pair(i, j));
                for (dx, dy) in FORWARD {
                    let bucket = sorted.range(bx + dx, by + dy, by + dy);
                    sorted.filter(probe, eps, bucket, &mut stats, |j| on_pair(i, j));
                }
            }
        }
    }
    stats
}

// ---------------------------------------------------------------------------
// One source, two instantiations
// ---------------------------------------------------------------------------

/// What one kernel call joins: two views, or one view with itself.
#[derive(Clone, Copy)]
enum Sides<'a> {
    Two(PointsView<'a>, PointsView<'a>),
    One(PointsView<'a>),
}

/// The sweep core: every point kernel and the filter under it. Inlined into
/// each instantiation, so the one source is compiled once per [`Isa`].
#[inline(always)]
fn sweep_core<F: FnMut(usize, usize)>(
    kind: KernelKind,
    eps: f64,
    sides: Sides<'_>,
    on_pair: F,
) -> KernelStats {
    match (sides, kind) {
        (Sides::Two(a, b), KernelKind::NestedLoop) => nested_loop_view(a, b, eps, on_pair),
        (Sides::Two(a, b), KernelKind::PlaneSweep) => sweep_view(a, b, eps, on_pair),
        (Sides::Two(a, b), KernelKind::GridBucket) => bucket_probe_view(a, b, eps, on_pair),
        (Sides::One(v), kind) => self_join_view(kind, eps, v, on_pair),
    }
}

/// The instruction sets [`sweep_core`] is compiled for: the portable target
/// (what every build runs), and on x86-64 AVX2, where the filter's chunk
/// loop runs four lanes per instruction. An AVX-512 instantiation (eight
/// lanes) scanned a lane faster still, but did not make `asj join` any
/// faster end to end than AVX2 did, so it is not built.
///
/// There is one source — no intrinsics — so the instantiations differ in
/// speed only: both round each `Δx² + Δy²` the same way, because Rust
/// never fuses a multiply and an add on its own and the source calls no
/// `mul_add`. A fused multiply-add rounds once, not twice, and would move
/// pairs at distance ε in or out of the result on the hosts that have it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    Portable,
    Avx2,
}

impl Isa {
    /// Whether this CPU runs the instantiation.
    fn on_host(self) -> bool {
        match self {
            Isa::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => std::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            Isa::Avx2 => false,
        }
    }

    /// The widest instantiation this CPU runs (the detection is cached by
    /// the standard library, so the pick is the same for the whole process).
    fn widest() -> Isa {
        if Isa::Avx2.on_host() {
            Isa::Avx2
        } else {
            Isa::Portable
        }
    }
}

/// [`sweep_core`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn sweep_core_avx2<F: FnMut(usize, usize)>(
    kind: KernelKind,
    eps: f64,
    sides: Sides<'_>,
    on_pair: F,
) -> KernelStats {
    sweep_core(kind, eps, sides, on_pair)
}

/// Runs [`sweep_core`] compiled for `isa`.
///
/// # Panics
/// Panics if this CPU does not run `isa`.
fn run_on<F: FnMut(usize, usize)>(
    isa: Isa,
    kind: KernelKind,
    eps: f64,
    sides: Sides<'_>,
    on_pair: F,
) -> KernelStats {
    let core: unsafe fn(KernelKind, f64, Sides<'_>, F) -> KernelStats = match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => sweep_core_avx2::<F>,
        _ => sweep_core::<F>,
    };
    assert!(isa.on_host(), "this CPU does not run {isa:?} code");
    // SAFETY: `core` is compiled for the target features of `isa` (or for the
    // portable target), and the assert above found them on this CPU.
    unsafe { core(kind, eps, sides, on_pair) }
}

/// Shared adaptive entry point of the columnar pipeline: resolves `requested`
/// (consulting `model` per group for `Auto`, using the views' **measured**
/// extent) and runs the chosen kernel, compiled for the widest instruction
/// set this CPU runs. Both views must be in ascending-`x` order. `on_pair`
/// receives view positions.
pub fn local_join_view(
    requested: LocalKernel,
    model: &KernelCostModel,
    eps: f64,
    a: PointsView<'_>,
    b: PointsView<'_>,
    on_pair: impl FnMut(usize, usize),
) -> LocalJoinOutcome {
    let (w, h) = view_extent(a, b);
    let kind = model.resolve(requested, a.len() as u64, b.len() as u64, eps, w, h);
    let stats = run_on(Isa::widest(), kind, eps, Sides::Two(a, b), on_pair);
    LocalJoinOutcome { kind, stats }
}

/// Self-join variant of [`local_join_view`] over one ascending-`x` view:
/// emits each unordered position pair at most once. Candidate semantics
/// mirror the two-sided kernels: nested loop counts all `n(n-1)/2` pairs,
/// sweep and bucket count window-passing pairs only.
///
/// `Auto` resolution reuses the two-sided model with `r = s = n`: that
/// scales every prediction by exactly 2× relative to the true self-join
/// work, so the argmin — and hence the choice — is unchanged.
pub fn local_self_join(
    requested: LocalKernel,
    model: &KernelCostModel,
    eps: f64,
    v: PointsView<'_>,
    on_pair: impl FnMut(usize, usize),
) -> LocalJoinOutcome {
    let (w, h) = view_extent(v, PointsView::empty());
    let n = v.len() as u64;
    let kind = model.resolve(requested, n, n, eps, w, h);
    let stats = run_on(Isa::widest(), kind, eps, Sides::One(v), on_pair);
    LocalJoinOutcome { kind, stats }
}

/// Envelope (extent) variant: enumerates candidate index pairs whose
/// rectangles may interact and hands each to `on_candidate`, which applies
/// the caller's exact predicate (reference-point dedup + true shape
/// distance) and reports whether the pair is a result.
///
/// The nested loop enumerates all `r·s` pairs; the sweep sorts by `min_x`
/// and enumerates only pairs whose rectangles overlap in both axes (the
/// caller is expected to pass ε-expanded rectangles on one side). A
/// `GridBucket` request falls back to the sweep — ε-bucketing is not
/// meaningful for arbitrarily wide envelopes.
#[allow(clippy::too_many_arguments)]
pub fn local_join_rects<A, B>(
    requested: LocalKernel,
    model: &KernelCostModel,
    eps: f64,
    a: &[A],
    b: &[B],
    rect_a: impl Fn(&A) -> Rect,
    rect_b: impl Fn(&B) -> Rect,
    mut on_candidate: impl FnMut(usize, usize) -> bool,
) -> LocalJoinOutcome {
    // (min_x, max_x, min_y, max_y, index)
    let ext = |r: Rect, i: usize| (r.min_x, r.max_x, r.min_y, r.max_y, i as u32);
    let mut ra: Vec<_> = a
        .iter()
        .enumerate()
        .map(|(i, v)| ext(rect_a(v), i))
        .collect();
    let mut rb: Vec<_> = b
        .iter()
        .enumerate()
        .map(|(i, v)| ext(rect_b(v), i))
        .collect();
    let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(lx, hx, ly, hy, _) in ra.iter().chain(&rb) {
        min_x = min_x.min(lx);
        max_x = max_x.max(hx);
        min_y = min_y.min(ly);
        max_y = max_y.max(hy);
    }
    let (w, h) = ((max_x - min_x).max(0.0), (max_y - min_y).max(0.0));
    let kind = match model.resolve(requested, a.len() as u64, b.len() as u64, eps, w, h) {
        KernelKind::GridBucket => KernelKind::PlaneSweep,
        k => k,
    };
    let mut stats = KernelStats::default();
    match kind {
        KernelKind::NestedLoop => {
            for &(.., ai) in &ra {
                for &(.., bi) in &rb {
                    stats.candidates += 1;
                    if on_candidate(ai as usize, bi as usize) {
                        stats.results += 1;
                    }
                }
            }
        }
        _ => {
            ra.sort_unstable_by(|p, q| p.0.total_cmp(&q.0));
            rb.sort_unstable_by(|p, q| p.0.total_cmp(&q.0));
            // b rectangles are sorted by min_x, but their right edges are
            // not monotone: the window start may only skip b's that end
            // before any later a can begin.
            let max_w_b = rb
                .iter()
                .map(|&(lx, hx, ..)| hx - lx)
                .fold(0.0f64, f64::max);
            let mut start_b = 0usize;
            for &(alx, ahx, aly, ahy, ai) in &ra {
                while start_b < rb.len() && rb[start_b].0 < alx - max_w_b {
                    start_b += 1;
                }
                for &(blx, bhx, bly, bhy, bi) in &rb[start_b..] {
                    if blx > ahx {
                        break;
                    }
                    if bhx < alx || bhy < aly || bly > ahy {
                        continue;
                    }
                    stats.candidates += 1;
                    if on_candidate(ai as usize, bi as usize) {
                        stats.results += 1;
                    }
                }
            }
        }
    }
    LocalJoinOutcome { kind, stats }
}

/// The committed [`KernelCostModel`]; there is no calibration to run.
#[deprecated(note = "frozen for benchmark/src/probe.rs")]
pub fn calibrate_cost_model() -> KernelCostModel {
    KernelCostModel::default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use asj_geom::Point;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const REQUESTS: [LocalKernel; 4] = [
        LocalKernel::NestedLoop,
        LocalKernel::PlaneSweep,
        LocalKernel::GridBucket,
        LocalKernel::Auto,
    ];

    fn random_points(n: usize, seed: u64, extent: f64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..extent), rng.gen_range(0.0..extent)))
            .collect()
    }

    /// Ascending-`x` lanes of `pts` — the shape a `PointBatch` group hands
    /// the kernels; `pos[k]` is the slice position lane `k` came from.
    struct Lanes {
        xs: Vec<f64>,
        ys: Vec<f64>,
        pos: Vec<usize>,
    }

    impl Lanes {
        fn sorted(pts: &[Point]) -> Lanes {
            let mut pos: Vec<usize> = (0..pts.len()).collect();
            pos.sort_by(|&p, &q| pts[p].x.total_cmp(&pts[q].x));
            Lanes {
                xs: pos.iter().map(|&p| pts[p].x).collect(),
                ys: pos.iter().map(|&p| pts[p].y).collect(),
                pos,
            }
        }

        fn view(&self) -> PointsView<'_> {
            PointsView::new(&self.xs, &self.ys)
        }
    }

    /// Brute-force oracle: the result pairs in `(i, j)` order, and the number
    /// of pairs inside the `|Δx| ≤ ε ∧ |Δy| ≤ ε` window.
    fn brute_force(a: &[Point], b: &[Point], eps: f64) -> (Vec<(usize, usize)>, u64) {
        let mut pairs = Vec::new();
        let mut window = 0;
        for (i, p) in a.iter().enumerate() {
            for (j, q) in b.iter().enumerate() {
                window += ((p.x - q.x).abs() <= eps && (p.y - q.y).abs() <= eps) as u64;
                if p.dist2(*q) <= eps * eps {
                    pairs.push((i, j));
                }
            }
        }
        (pairs, window)
    }

    /// Runs `local_join_view` over the x-sorted lanes of `a` and `b`; pairs
    /// come back as slice positions, sorted.
    fn join(
        requested: LocalKernel,
        a: &[Point],
        b: &[Point],
        eps: f64,
    ) -> (Vec<(usize, usize)>, LocalJoinOutcome) {
        let model = KernelCostModel::default();
        let (la, lb) = (Lanes::sorted(a), Lanes::sorted(b));
        let mut pairs = Vec::new();
        let out = local_join_view(requested, &model, eps, la.view(), lb.view(), |i, j| {
            pairs.push((la.pos[i], lb.pos[j]))
        });
        pairs.sort_unstable();
        (pairs, out)
    }

    const KINDS: [KernelKind; 3] = [
        KernelKind::NestedLoop,
        KernelKind::PlaneSweep,
        KernelKind::GridBucket,
    ];

    /// Points around `(1, 2)` at distance 0.4 up to rounding, where a fused
    /// multiply-add decides `Δx² + Δy² ≤ ε²` the other way: the first three
    /// are within ε when the sum is rounded twice, the last three only when
    /// it is rounded once.
    const FUSED_EDGE: [(f64, f64); 6] = [
        (1.3859327831189412, 2.105146977674436),
        (1.339328998035404, 2.2117919523784813),
        (1.395306745652807, 2.061094818449579),
        (1.3934947777915485, 2.0718460844498843),
        (1.3857954740743497, 2.105649667220242),
        (1.399999988087343, 2.0000976223614595),
    ];

    /// `(a, b, ε)` groups on which two instantiations of the sweep core
    /// could part: rounding at ε, pairs at exactly ε, both signs of zero, and
    /// windows around the chunk edge with the rounding cases near its end.
    fn edge_groups() -> Vec<(Vec<Point>, Vec<Point>, f64)> {
        let pt = |(x, y)| Point::new(x, y);
        let exact = [
            (3.0, 4.0),
            (5.0, 0.0),
            (0.0, -5.0),
            (-5.0, 0.0),
            (-4.0, 3.0),
            (5.0, 1e-9),
        ];
        let zeros = [
            (-0.0, -0.0),
            (0.0, 0.0),
            (0.5, -0.0),
            (-0.0, -0.5),
            (0.5, 0.5),
        ];
        let mut groups = vec![
            (vec![pt((1.0, 2.0))], FUSED_EDGE.map(pt).to_vec(), 0.4),
            (vec![pt((0.0, 0.0))], exact.map(pt).to_vec(), 5.0),
            (
                vec![pt((0.0, -0.0)), pt((-0.0, 0.0))],
                zeros.map(pt).to_vec(),
                0.5,
            ),
        ];
        for len in [63, 64, 65, 127, 128, 129] {
            let near = |p: Point| pt((p.x + 0.6, p.y + 1.6));
            let mut a: Vec<Point> = random_points(4, len as u64, 0.8)
                .into_iter()
                .map(near)
                .collect();
            a.push(pt((1.0, 2.0)));
            let mut b: Vec<Point> = random_points(len - FUSED_EDGE.len(), 100 + len as u64, 0.8)
                .into_iter()
                .map(near)
                .collect();
            b.extend(FUSED_EDGE.map(pt));
            groups.push((a, b, 0.4));
        }
        groups
    }

    /// The hit sequence and stats of `kind` compiled for `isa`, over `a`
    /// and `b`, or over `a` alone.
    fn run_lanes(
        isa: Isa,
        kind: KernelKind,
        eps: f64,
        a: &Lanes,
        b: Option<&Lanes>,
    ) -> (Vec<(usize, usize)>, KernelStats) {
        let sides = b.map_or(Sides::One(a.view()), |b| Sides::Two(a.view(), b.view()));
        let mut hits = Vec::new();
        let stats = run_on(isa, kind, eps, sides, |i, j| hits.push((i, j)));
        (hits, stats)
    }

    #[test]
    fn every_instantiation_the_host_runs_matches_the_portable_one() {
        let on_host: Vec<Isa> = [Isa::Avx2, Isa::Portable]
            .into_iter()
            .filter(|isa| isa.on_host())
            .collect();
        let mut groups = edge_groups();
        groups.push((
            random_points(300, 61, 9.0),
            random_points(200, 62, 9.0),
            0.6,
        ));
        for (a, b, eps) in groups {
            let (la, lb) = (Lanes::sorted(&a), Lanes::sorted(&b));
            let both = Lanes::sorted(&[a, b].concat());
            for kind in KINDS {
                for (one, other) in [(&la, Some(&lb)), (&lb, Some(&la)), (&both, None)] {
                    let portable = run_lanes(Isa::Portable, kind, eps, one, other);
                    for &isa in &on_host {
                        let got = run_lanes(isa, kind, eps, one, other);
                        assert_eq!(got, portable, "{isa:?}, {kind:?}, {} lanes", one.xs.len());
                    }
                }
            }
        }
    }

    #[test]
    fn filter_window_is_exact_around_the_chunk_edge() {
        for len in [0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 200] {
            let pts = random_points(len, len as u64, 2.0);
            let (xs, ys): (Vec<f64>, Vec<f64>) = pts.iter().map(|p| (p.x, p.y)).unzip();
            let probe = Point::new(1.0, 1.0);
            let eps = 0.6;
            for check_x in [false, true] {
                let mut stats = KernelStats::default();
                let mut hits = Vec::new();
                if check_x {
                    filter_window::<true>((1.0, 1.0), eps, &xs, &ys, &mut stats, |k| hits.push(k));
                } else {
                    filter_window::<false>((1.0, 1.0), eps, &xs, &ys, &mut stats, |k| hits.push(k));
                }
                let in_window = |p: &&Point| {
                    (p.y - probe.y).abs() <= eps && (!check_x || (p.x - probe.x).abs() <= eps)
                };
                let expected: Vec<usize> = (0..len)
                    .filter(|&k| pts[k].dist2(probe) <= eps * eps)
                    .collect();
                assert_eq!(hits, expected, "len {len}");
                assert_eq!(stats.results as usize, expected.len());
                assert_eq!(
                    stats.candidates as usize,
                    pts.iter().filter(in_window).count()
                );
            }
        }
    }

    #[test]
    fn plane_sweep_prunes_candidates() {
        let a = random_points(500, 1, 50.0);
        let b = random_points(500, 2, 50.0);
        let (_, nl) = join(LocalKernel::NestedLoop, &a, &b, 1.0);
        let (_, ps) = join(LocalKernel::PlaneSweep, &a, &b, 1.0);
        assert_eq!(nl.stats.candidates, 500 * 500);
        assert!(
            ps.stats.candidates < nl.stats.candidates / 5,
            "sweep should prune: {} vs {}",
            ps.stats.candidates,
            nl.stats.candidates
        );
        assert_eq!(nl.stats.results, ps.stats.results);
    }

    #[test]
    fn empty_sides_yield_nothing() {
        let b = random_points(10, 3, 5.0);
        for requested in REQUESTS {
            for (l, r) in [(&[][..], &b[..]), (&b[..], &[][..]), (&[][..], &[][..])] {
                let (pairs, out) = join(requested, l, r, 1.0);
                assert!(pairs.is_empty());
                assert_eq!(out.stats, KernelStats::default());
            }
        }
    }

    #[test]
    fn boundary_distance_is_inclusive() {
        let a = vec![Point::new(0.0, 0.0)];
        let b = vec![Point::new(3.0, 4.0)];
        for requested in REQUESTS {
            assert_eq!(join(requested, &a, &b, 5.0).0, vec![(0, 0)]);
        }
    }

    #[test]
    fn stats_merge_adds() {
        let mut s = KernelStats {
            candidates: 5,
            results: 2,
        };
        s.merge(&KernelStats {
            candidates: 1,
            results: 1,
        });
        assert_eq!(
            s,
            KernelStats {
                candidates: 6,
                results: 3
            }
        );
    }

    #[test]
    fn duplicate_coordinates_produce_all_pairs() {
        let a = vec![Point::new(1.0, 1.0); 4];
        let b = vec![Point::new(1.0, 1.0); 3];
        for requested in REQUESTS {
            assert_eq!(join(requested, &a, &b, 0.5).0.len(), 12);
        }
    }

    #[test]
    fn local_join_matches_brute_force_for_every_request() {
        let mut groups = edge_groups();
        // The rounding cases are where the oracle says: three in, three out.
        let (a, b, eps) = &groups[0];
        assert_eq!(brute_force(a, b, *eps).0, vec![(0, 0), (0, 1), (0, 2)]);
        groups.push((
            random_points(250, 11, 8.0),
            random_points(250, 12, 8.0),
            0.5,
        ));
        for (a, b, eps) in groups {
            let (expected, window) = brute_force(&a, &b, eps);
            for requested in REQUESTS {
                let (pairs, out) = join(requested, &a, &b, eps);
                assert_eq!(pairs, expected, "{requested:?}");
                assert_eq!(out.stats.results as usize, expected.len());
                if out.kind != KernelKind::NestedLoop {
                    assert_eq!(out.stats.candidates, window, "{requested:?}");
                }
            }
        }
    }

    #[test]
    fn auto_picks_nested_loop_only_where_counts_cannot_inflate() {
        // Wide sparse group: Auto must use a prefiltering kernel, so its
        // candidate count equals the sweep's, not r·s.
        let a = random_points(120, 31, 40.0);
        let b = random_points(120, 32, 40.0);
        let (_, ps) = join(LocalKernel::PlaneSweep, &a, &b, 0.8);
        let (_, auto) = join(LocalKernel::Auto, &a, &b, 0.8);
        assert_ne!(auto.kind, KernelKind::NestedLoop);
        assert_eq!(auto.stats.candidates, ps.stats.candidates);
        // Tight group inside eps x eps: nested loop, and the counts agree
        // with the sweep by construction (every pair passes the window).
        let a = random_points(40, 33, 0.3);
        let b = random_points(40, 34, 0.3);
        let (_, ps) = join(LocalKernel::PlaneSweep, &a, &b, 0.5);
        let (_, auto) = join(LocalKernel::Auto, &a, &b, 0.5);
        assert_eq!(auto.kind, KernelKind::NestedLoop);
        assert_eq!(auto.stats.candidates, ps.stats.candidates);
    }

    #[test]
    fn self_join_kernels_agree() {
        let model = KernelCostModel::default();
        let groups = edge_groups()
            .into_iter()
            .map(|(a, b, eps)| ([a, b].concat(), eps));
        for (pts, eps) in groups.chain([(random_points(300, 41, 9.0), 0.6)]) {
            let n = pts.len() as u64;
            let (all, window) = brute_force(&pts, &pts, eps);
            let expected: Vec<_> = all.into_iter().filter(|&(i, j)| i < j).collect();
            assert!(!expected.is_empty());
            // Unordered off-diagonal pairs inside the window.
            let window = (window - n) / 2;
            let lanes = Lanes::sorted(&pts);
            for requested in REQUESTS {
                let mut pairs = Vec::new();
                let out = local_self_join(requested, &model, eps, lanes.view(), |i, j| {
                    let (i, j) = (lanes.pos[i], lanes.pos[j]);
                    pairs.push((i.min(j), i.max(j)))
                });
                pairs.sort_unstable();
                assert_eq!(pairs, expected, "{requested:?}");
                assert_eq!(out.stats.results as usize, expected.len());
                match out.kind {
                    KernelKind::NestedLoop => assert_eq!(out.stats.candidates, n * (n - 1) / 2),
                    _ => assert_eq!(out.stats.candidates, window, "{requested:?}"),
                }
            }
        }
        for requested in REQUESTS {
            let none = PointsView::empty();
            let out = local_self_join(requested, &model, 0.6, none, |_, _| unreachable!());
            assert_eq!(out.stats, KernelStats::default());
        }
    }

    #[test]
    fn rect_kernels_agree_and_sweep_prunes() {
        let mut rng = StdRng::seed_from_u64(51);
        let rects: Vec<Rect> = (0..150)
            .map(|_| {
                let x = rng.gen_range(0.0..30.0);
                let y = rng.gen_range(0.0..30.0);
                Rect::new(
                    x,
                    y,
                    x + rng.gen_range(0.1..1.5),
                    y + rng.gen_range(0.1..1.5),
                )
            })
            .collect();
        let others: Vec<Rect> = (0..150)
            .map(|_| {
                let x = rng.gen_range(0.0..30.0);
                let y = rng.gen_range(0.0..30.0);
                Rect::new(
                    x,
                    y,
                    x + rng.gen_range(0.1..1.5),
                    y + rng.gen_range(0.1..1.5),
                )
            })
            .collect();
        let model = KernelCostModel::default();
        let eps = 0.5;
        let run = |requested: LocalKernel| {
            let mut hits = Vec::new();
            let out = local_join_rects(
                requested,
                &model,
                eps,
                &rects,
                &others,
                |r| r.expand(eps),
                |r| *r,
                |i, j| {
                    let touch = rects[i].expand(eps).intersects(&others[j]);
                    if touch {
                        hits.push((i, j));
                    }
                    touch
                },
            );
            hits.sort_unstable();
            (hits, out)
        };
        let (h_nl, o_nl) = run(LocalKernel::NestedLoop);
        let (h_ps, o_ps) = run(LocalKernel::PlaneSweep);
        let (h_auto, o_auto) = run(LocalKernel::Auto);
        assert_eq!(h_nl, h_ps);
        assert_eq!(h_nl, h_auto);
        assert!(!h_nl.is_empty());
        assert_eq!(o_nl.stats.candidates, 150 * 150);
        assert!(o_ps.stats.candidates < o_nl.stats.candidates);
        assert_eq!(o_nl.stats.results, o_ps.stats.results);
        assert_ne!(o_auto.kind, KernelKind::NestedLoop);
    }
}
