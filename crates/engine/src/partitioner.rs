use std::collections::HashMap;

/// How grid cells are placed onto join partitions (and hence nodes) — the
/// choice evaluated in Table 7 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Spark's default: hash the key into one of the partitions.
    Hash,
    /// Longest-Processing-Time greedy driven by sampled per-cell cost (§6.2).
    Lpt,
    /// SJMR's round-robin tile mapping (related work \[27\]).
    RoundRobin,
}

impl Placement {
    pub fn name(self) -> &'static str {
        match self {
            Placement::Hash => "hash",
            Placement::Lpt => "LPT",
            Placement::RoundRobin => "round-robin",
        }
    }
}

/// Maps shuffle keys to partitions in `0..num_partitions()`.
pub trait Partitioner<K>: Sync {
    fn num_partitions(&self) -> usize;
    fn partition_of(&self, key: &K) -> usize;
}

/// Multiplicative hashing of `u64` keys (Fibonacci hashing). Spark's
/// `HashPartitioner` equivalent for our integer cell ids: deterministic,
/// cheap, and scrambles consecutive cell indices across partitions.
#[derive(Debug, Clone)]
pub struct HashPartitioner {
    partitions: usize,
}

impl HashPartitioner {
    pub fn new(partitions: usize) -> Self {
        assert!(partitions > 0, "need at least one partition");
        HashPartitioner { partitions }
    }

    #[inline]
    pub fn hash64(key: u64) -> u64 {
        // Fibonacci multiplier (2^64 / φ) followed by a xor-fold; enough to
        // decorrelate row-major cell ids from partition counts.
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^ (h >> 32)
    }
}

impl Partitioner<u64> for HashPartitioner {
    #[inline]
    fn num_partitions(&self) -> usize {
        self.partitions
    }

    #[inline]
    fn partition_of(&self, key: &u64) -> usize {
        (Self::hash64(*key) % self.partitions as u64) as usize
    }
}

/// SJMR-style tile mapping (Zhang et al.): cell/tile ids are assigned to
/// partitions round-robin (`tile mod P`). Spreads spatially-contiguous hot
/// regions across partitions deterministically, without needing a sample.
#[derive(Debug, Clone)]
pub struct RoundRobinPartitioner {
    partitions: usize,
}

impl RoundRobinPartitioner {
    pub fn new(partitions: usize) -> Self {
        assert!(partitions > 0, "need at least one partition");
        RoundRobinPartitioner { partitions }
    }
}

impl Partitioner<u64> for RoundRobinPartitioner {
    #[inline]
    fn num_partitions(&self) -> usize {
        self.partitions
    }

    #[inline]
    fn partition_of(&self, key: &u64) -> usize {
        (*key % self.partitions as u64) as usize
    }
}

/// Marks unassigned slots in the dense lookup table.
const DENSE_UNASSIGNED: u32 = u32::MAX;

/// Largest key span the dense table will materialize (16 Mi slots = 64 MiB).
const DENSE_SPAN_LIMIT: u64 = 1 << 24;

/// The lookup structure behind [`ExplicitPartitioner`]. Grid cell ids are
/// `row * nx + col`, so the LPT assignment usually covers a contiguous (or
/// near-contiguous) id range; a dense array indexed by `key - base` then
/// replaces the hash probe on the shuffle's per-record hot path. Sparse key
/// sets (span much larger than the assignment) keep the map.
#[derive(Debug, Clone)]
enum Lookup {
    Dense {
        base: u64,
        table: Vec<u32>,
        assigned: usize,
    },
    Sparse(HashMap<u64, usize>),
}

/// Explicit key → partition map (the output of LPT), with hash fallback for
/// keys that were not present in the sample.
#[derive(Debug, Clone)]
pub struct ExplicitPartitioner {
    lookup: Lookup,
    fallback: HashPartitioner,
}

impl ExplicitPartitioner {
    pub fn new(map: HashMap<u64, usize>, partitions: usize) -> Self {
        assert!(
            map.values().all(|&p| p < partitions),
            "assignment out of range"
        );
        let lookup = match Self::dense_span(&map) {
            Some((base, span)) => {
                let mut table = vec![DENSE_UNASSIGNED; span as usize];
                for (&k, &p) in &map {
                    table[(k - base) as usize] = p as u32;
                }
                Lookup::Dense {
                    base,
                    table,
                    assigned: map.len(),
                }
            }
            None => Lookup::Sparse(map),
        };
        ExplicitPartitioner {
            lookup,
            fallback: HashPartitioner::new(partitions),
        }
    }

    /// Builds the map-backed variant unconditionally, so equivalence tests
    /// can pin the hash-map probe path on key sets that would otherwise get
    /// the dense table.
    pub fn new_sparse(map: HashMap<u64, usize>, partitions: usize) -> Self {
        assert!(
            map.values().all(|&p| p < partitions),
            "assignment out of range"
        );
        ExplicitPartitioner {
            lookup: Lookup::Sparse(map),
            fallback: HashPartitioner::new(partitions),
        }
    }

    /// `(base, span)` when the key set is dense enough for a table: the span
    /// must fit [`DENSE_SPAN_LIMIT`] and waste at most 4 slots per assigned
    /// key (small maps always qualify up to a 64-slot floor).
    fn dense_span(map: &HashMap<u64, usize>) -> Option<(u64, u64)> {
        let min = *map.keys().min()?;
        let max = *map.keys().max()?;
        let span = max - min + 1;
        let budget = (map.len() as u64).saturating_mul(4).max(64);
        (span <= DENSE_SPAN_LIMIT && span <= budget).then_some((min, span))
    }

    /// Whether the dense fast path is active.
    pub fn is_dense(&self) -> bool {
        matches!(self.lookup, Lookup::Dense { .. })
    }

    /// Number of keys with an explicit assignment.
    pub fn assigned_keys(&self) -> usize {
        match &self.lookup {
            Lookup::Dense { assigned, .. } => *assigned,
            Lookup::Sparse(map) => map.len(),
        }
    }
}

impl Partitioner<u64> for ExplicitPartitioner {
    #[inline]
    fn num_partitions(&self) -> usize {
        self.fallback.num_partitions()
    }

    #[inline]
    fn partition_of(&self, key: &u64) -> usize {
        match &self.lookup {
            Lookup::Dense { base, table, .. } => {
                match key.checked_sub(*base).and_then(|i| table.get(i as usize)) {
                    Some(&p) if p != DENSE_UNASSIGNED => p as usize,
                    _ => self.fallback.partition_of(key),
                }
            }
            Lookup::Sparse(map) => match map.get(key) {
                Some(&p) => p,
                None => self.fallback.partition_of(key),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_partitioner_in_range_and_deterministic() {
        let p = HashPartitioner::new(96);
        for k in 0..10_000u64 {
            let a = p.partition_of(&k);
            assert!(a < 96);
            assert_eq!(a, p.partition_of(&k));
        }
    }

    #[test]
    fn hash_partitioner_spreads_consecutive_keys() {
        let p = HashPartitioner::new(16);
        let mut counts = [0usize; 16];
        for k in 0..1600u64 {
            counts[p.partition_of(&k)] += 1;
        }
        // No partition should be starved or hold more than 3x its share.
        for c in counts {
            assert!(c > 0 && c < 300, "skewed hash distribution: {counts:?}");
        }
    }

    #[test]
    fn explicit_partitioner_uses_map_then_fallback() {
        let mut map = HashMap::new();
        map.insert(7u64, 3usize);
        map.insert(8u64, 0usize);
        let p = ExplicitPartitioner::new(map, 4);
        assert_eq!(p.partition_of(&7), 3);
        assert_eq!(p.partition_of(&8), 0);
        assert_eq!(p.assigned_keys(), 2);
        let f = p.partition_of(&12345);
        assert!(f < 4);
        assert_eq!(f, HashPartitioner::new(4).partition_of(&12345));
    }

    #[test]
    #[should_panic(expected = "assignment out of range")]
    fn explicit_partitioner_validates_range() {
        let mut map = HashMap::new();
        map.insert(1u64, 9usize);
        let _ = ExplicitPartitioner::new(map, 4);
    }

    #[test]
    #[should_panic(expected = "assignment out of range")]
    fn sparse_constructor_validates_range() {
        let mut map = HashMap::new();
        map.insert(1u64, 9usize);
        let _ = ExplicitPartitioner::new_sparse(map, 4);
    }

    #[test]
    fn contiguous_cell_ids_take_the_dense_path() {
        // Grid cell ids 100..1100 — contiguous, as the grid produces them.
        let map: HashMap<u64, usize> = (100u64..1100).map(|k| (k, (k % 7) as usize)).collect();
        let dense = ExplicitPartitioner::new(map.clone(), 7);
        assert!(dense.is_dense());
        assert_eq!(dense.assigned_keys(), 1000);
        let sparse = ExplicitPartitioner::new_sparse(map, 7);
        assert!(!sparse.is_dense());
        // Assigned keys, unassigned keys inside the span, keys below the
        // base, and keys past the end all agree with the map-backed lookup.
        for k in [0u64, 42, 99, 100, 567, 1099, 1100, 5000, u64::MAX] {
            assert_eq!(
                dense.partition_of(&k),
                sparse.partition_of(&k),
                "lookup paths disagree at key {k}"
            );
        }
    }

    #[test]
    fn gappy_dense_table_falls_back_per_key() {
        // Contiguous span with holes: dense table with sentinel slots.
        let map: HashMap<u64, usize> = (0u64..200).filter(|k| k % 3 != 1).map(|k| (k, 2)).collect();
        let p = ExplicitPartitioner::new(map, 4);
        assert!(p.is_dense());
        assert_eq!(p.partition_of(&0), 2);
        assert_eq!(p.partition_of(&199), 2);
        // Hole at k=1: must agree with the hash fallback, not the sentinel.
        assert_eq!(p.partition_of(&1), HashPartitioner::new(4).partition_of(&1));
    }

    #[test]
    fn wide_key_spans_keep_the_map() {
        let mut map = HashMap::new();
        map.insert(0u64, 1usize);
        map.insert(u64::MAX - 1, 2usize);
        let p = ExplicitPartitioner::new(map, 4);
        assert!(
            !p.is_dense(),
            "a 2-key span of 2^64 must not allocate a table"
        );
        assert_eq!(p.partition_of(&0), 1);
        assert_eq!(p.partition_of(&(u64::MAX - 1)), 2);
        assert_eq!(p.assigned_keys(), 2);
    }

    #[test]
    fn small_maps_get_the_64_slot_floor() {
        // 5 keys over a span of 60: sparser than 4x but under the floor.
        let map: HashMap<u64, usize> = (0..5u64).map(|i| (i * 15, 0usize)).collect();
        let p = ExplicitPartitioner::new(map, 4);
        assert!(p.is_dense());
        assert_eq!(p.partition_of(&15), 0);
    }

    #[test]
    fn placement_names() {
        assert_eq!(Placement::Hash.name(), "hash");
        assert_eq!(Placement::Lpt.name(), "LPT");
        assert_eq!(Placement::RoundRobin.name(), "round-robin");
    }

    #[test]
    fn round_robin_is_modulo() {
        let p = RoundRobinPartitioner::new(5);
        assert_eq!(p.num_partitions(), 5);
        for k in 0..100u64 {
            assert_eq!(p.partition_of(&k), (k % 5) as usize);
        }
    }
}
