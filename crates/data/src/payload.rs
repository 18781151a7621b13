/// The paper's *tuple size factor* (Figs. 16–18): real records carry
/// non-spatial attributes (names, descriptions, …) that must travel with the
/// tuple through the shuffle. Each factor adds a fixed payload per tuple on
/// top of the spatial information.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TupleSizeFactor {
    F0,
    F1,
    F2,
    F3,
    F4,
}

impl TupleSizeFactor {
    pub const ALL: [TupleSizeFactor; 5] = [
        TupleSizeFactor::F0,
        TupleSizeFactor::F1,
        TupleSizeFactor::F2,
        TupleSizeFactor::F3,
        TupleSizeFactor::F4,
    ];

    /// Extra bytes per tuple beyond id and coordinates. The paper does not
    /// publish the absolute sizes, only that factors grow monotonically; we
    /// use a doubling ladder starting at 32 B (a short name string) up to
    /// 256 B (name + description + tags).
    pub fn payload_bytes(self) -> usize {
        match self {
            TupleSizeFactor::F0 => 0,
            TupleSizeFactor::F1 => 32,
            TupleSizeFactor::F2 => 64,
            TupleSizeFactor::F3 => 128,
            TupleSizeFactor::F4 => 256,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            TupleSizeFactor::F0 => "f0",
            TupleSizeFactor::F1 => "f1",
            TupleSizeFactor::F2 => "f2",
            TupleSizeFactor::F3 => "f3",
            TupleSizeFactor::F4 => "f4",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_grow_monotonically() {
        let sizes: Vec<usize> = TupleSizeFactor::ALL
            .iter()
            .map(|f| f.payload_bytes())
            .collect();
        assert_eq!(sizes[0], 0);
        for w in sizes.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(TupleSizeFactor::F0.name(), "f0");
        assert_eq!(TupleSizeFactor::F4.name(), "f4");
    }
}
