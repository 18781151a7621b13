/// A join's result pairs `(r.id, s.id)`, kept as the partitions produced
/// them: one `Vec` per join partition, in partition order. Nothing gathers
/// them into one `Vec` while the partitions are still alive, which would hold
/// every pair twice.
///
/// Everything reads the pairs in the order a gather would have produced:
/// [`Pairs::iter`], [`Pairs::to_vec`] and equality all see the flattened
/// sequence, whatever the chunking.
#[derive(Debug, Clone, Default)]
pub struct Pairs {
    chunks: Vec<Vec<(u64, u64)>>,
}

impl Pairs {
    /// The pairs of each partition, in partition order.
    pub(crate) fn from_chunks(chunks: Vec<Vec<(u64, u64)>>) -> Self {
        Pairs { chunks }
    }

    /// Number of pairs (not of chunks).
    pub fn len(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.chunks.iter().all(Vec::is_empty)
    }

    /// Every pair, in partition order.
    pub fn iter(&self) -> impl Iterator<Item = &(u64, u64)> + Clone + '_ {
        self.chunks.iter().flatten()
    }

    /// Each partition's pairs, in partition order.
    pub fn chunks(&self) -> impl Iterator<Item = &[(u64, u64)]> + '_ {
        self.chunks.iter().map(Vec::as_slice)
    }

    /// The pairs copied into one `Vec`, in partition order.
    pub fn to_vec(&self) -> Vec<(u64, u64)> {
        self.chunks.concat()
    }

    /// The pairs gathered into one `Vec`, in partition order; a single chunk
    /// moves without a copy, and each chunk is freed once it is copied.
    pub fn into_vec(mut self) -> Vec<(u64, u64)> {
        if self.chunks.len() == 1 {
            return self.chunks.pop().unwrap_or_default();
        }
        let mut all = Vec::with_capacity(self.len());
        for chunk in self.chunks {
            all.extend(chunk);
        }
        all
    }
}

impl From<Vec<(u64, u64)>> for Pairs {
    fn from(pairs: Vec<(u64, u64)>) -> Self {
        Pairs::from_chunks(vec![pairs])
    }
}

impl PartialEq for Pairs {
    fn eq(&self, other: &Pairs) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunking_is_invisible_to_readers() {
        let flat = vec![(1, 2), (3, 4), (5, 6)];
        let chunked = Pairs::from_chunks(vec![vec![(1, 2)], vec![], vec![(3, 4), (5, 6)]]);
        assert_eq!(chunked, Pairs::from(flat.clone()));
        assert_eq!((chunked.len(), chunked.is_empty()), (3, false));
        assert_eq!(chunked.iter().copied().collect::<Vec<_>>(), flat);
        assert_eq!(
            chunked.chunks().map(<[_]>::len).collect::<Vec<_>>(),
            [1, 0, 2]
        );
        assert_eq!(chunked.to_vec(), flat);
        assert_eq!(chunked.into_vec(), flat);
        assert_ne!(Pairs::from(vec![(1, 2)]), Pairs::from(vec![(2, 1)]));
        let empty = Pairs::from_chunks(vec![Vec::new(); 4]);
        assert!(empty.is_empty() && empty == Pairs::default());
    }
}
