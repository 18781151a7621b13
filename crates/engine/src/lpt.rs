use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Longest-Processing-Time assignment of weighted keys to `bins` partitions
/// (§6.2 of the paper).
///
/// Cells are sorted by estimated join cost (descending) and greedily placed
/// on the partition with the smallest aggregate cost so far — the classic
/// 4/3-approximation for the NP-hard multiprocessor scheduling problem the
/// paper reduces its placement to. The cost estimates come from the sampled
/// per-cell `r · s` products.
///
/// Returns an explicit key → bin map for [`crate::ExplicitPartitioner`].
pub fn lpt_assign(costs: &[(u64, u64)], bins: usize) -> HashMap<u64, usize> {
    assert!(bins > 0, "need at least one bin");
    let mut order: Vec<&(u64, u64)> = costs.iter().collect();
    // Descending cost; key ascending as deterministic tie-break.
    order.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    // Min-heap of (load, bin).
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
        (0..bins).map(|b| Reverse((0u64, b))).collect();
    let mut map = HashMap::with_capacity(costs.len());
    for &&(key, cost) in &order {
        let Reverse((load, bin)) = heap.pop().expect("heap has `bins` entries");
        map.insert(key, bin);
        heap.push(Reverse((load + cost, bin)));
    }
    map
}

/// Maximum bin load under an assignment — used by tests and diagnostics.
pub fn assignment_makespan(costs: &[(u64, u64)], map: &HashMap<u64, usize>, bins: usize) -> u64 {
    let mut load = vec![0u64; bins];
    for &(key, cost) in costs {
        load[map[&key]] += cost;
    }
    load.into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assigns_every_key_in_range() {
        let costs: Vec<(u64, u64)> = (0..100).map(|k| (k, k * 3 % 17)).collect();
        let map = lpt_assign(&costs, 8);
        assert_eq!(map.len(), 100);
        assert!(map.values().all(|&b| b < 8));
    }

    #[test]
    fn classic_lpt_example() {
        // Jobs {7,7,6,6,5,5,4} on 3 machines: the classic LPT worst case.
        // The optimum is 14 — {7,6}, {7,6}, {5,5,4} — which meets the lower
        // bound ⌈40/3⌉; greedy reaches 16, within its 4/3 guarantee.
        let costs = vec![(0, 7), (1, 7), (2, 6), (3, 6), (4, 5), (5, 5), (6, 4)];
        let map = lpt_assign(&costs, 3);
        assert_eq!(assignment_makespan(&costs, &map, 3), 16);
        let optimum: HashMap<u64, usize> = [(0, 0), (2, 0), (1, 1), (3, 1), (4, 2), (5, 2), (6, 2)]
            .into_iter()
            .collect();
        assert_eq!(assignment_makespan(&costs, &optimum, 3), 14);
    }

    #[test]
    fn beats_round_robin_on_skew() {
        // One giant cell plus many small ones: hash/round-robin placements
        // routinely pair the giant with extra work; LPT isolates it.
        let mut costs = vec![(0u64, 1000u64)];
        costs.extend((1..41).map(|k| (k, 50)));
        let map = lpt_assign(&costs, 4);
        let lpt_makespan = assignment_makespan(&costs, &map, 4);
        // Round-robin by key order.
        let rr: HashMap<u64, usize> = costs.iter().map(|&(k, _)| (k, (k % 4) as usize)).collect();
        let rr_makespan = assignment_makespan(&costs, &rr, 4);
        assert!(
            lpt_makespan <= 1000 + 50,
            "LPT must isolate the giant: {lpt_makespan}"
        );
        assert!(lpt_makespan < rr_makespan);
    }

    #[test]
    fn single_bin_gets_everything() {
        let costs = vec![(1, 5), (2, 6)];
        let map = lpt_assign(&costs, 1);
        assert!(map.values().all(|&b| b == 0));
    }

    #[test]
    fn deterministic_under_ties() {
        let costs = vec![(10, 5), (11, 5), (12, 5), (13, 5)];
        let a = lpt_assign(&costs, 2);
        let b = lpt_assign(&costs, 2);
        assert_eq!(a, b);
    }
}
