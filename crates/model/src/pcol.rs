//! Persistent, structure-sharing columns for the live index.
//!
//! The streaming regime publishes immutable snapshots of a mutating
//! [`crate::LiveIndex`] once per tick. With flat `Vec` columns every
//! snapshot is an O(index) deep copy, so tick rate degrades with
//! accumulated schedule size even when a tick touches a handful of
//! edges. [`PCol`] makes a snapshot O(changes) instead: a chunked
//! persistent column for per-edge / per-node data. Elements live in
//! fixed-size chunks behind [`Arc`]; cloning the column clones chunk
//! *handles* (refcount bumps), and a mutation after a clone copies only
//! the one chunk it lands in (copy-on-write via [`Arc::make_mut`]).
//! Appends go to a small owned tail that is frozen into an `Arc` chunk
//! when full.
//!
//! A column counts how many frozen chunks it shares and how many chunk
//! copies mutations forced, which is what the serve runtime's
//! publication metrics report: on a healthy schedule the copied count
//! per tick tracks the tick's change set, not the index size.

use std::sync::Arc;

/// Chunk capacity of per-edge / per-node [`PCol`] columns.
pub const COL_CHUNK: usize = 64;

/// A chunked persistent column: `Arc`-shared fixed-size chunks plus an
/// owned append tail.
///
/// Cloning is O(number of chunks) refcount bumps plus one tail copy —
/// never a deep copy of frozen data. Mutating a frozen element after a
/// clone copies exactly the `N`-element chunk it lives in.
#[derive(Debug, Clone)]
pub struct PCol<V, const N: usize> {
    /// Frozen chunks of exactly `N` elements each.
    full: Vec<Arc<Vec<V>>>,
    /// Owned append edge, fewer than `N` elements.
    tail: Vec<V>,
    /// How many shared chunks mutations have had to copy so far.
    cow_copies: u64,
}

impl<V, const N: usize> Default for PCol<V, N> {
    fn default() -> Self {
        PCol::new()
    }
}

impl<V, const N: usize> PCol<V, N> {
    /// An empty column.
    #[must_use]
    pub fn new() -> Self {
        const { assert!(N > 0) };
        PCol {
            full: Vec::new(),
            tail: Vec::new(),
            cow_copies: 0,
        }
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.full.len() * N + self.tail.len()
    }

    /// `true` iff the column has no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.full.is_empty() && self.tail.is_empty()
    }

    /// Appends an element; freezes the tail into a shared chunk when it
    /// reaches the chunk capacity.
    pub fn push(&mut self, v: V) {
        self.tail.push(v);
        if self.tail.len() == N {
            self.full.push(Arc::new(std::mem::take(&mut self.tail)));
        }
    }

    /// The element at `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn get(&self, i: usize) -> &V {
        let frozen = self.full.len() * N;
        if i < frozen {
            &self.full[i / N][i % N]
        } else {
            &self.tail[i - frozen]
        }
    }

    /// Iterates the elements in index order.
    pub fn iter(&self) -> impl Iterator<Item = &V> {
        self.full
            .iter()
            .flat_map(|c| c.iter())
            .chain(self.tail.iter())
    }

    /// Number of frozen (sharable) chunks.
    #[must_use]
    pub fn frozen_chunks(&self) -> u64 {
        self.full.len() as u64
    }

    /// How many shared chunks mutations have had to copy so far.
    #[must_use]
    pub fn cow_copies(&self) -> u64 {
        self.cow_copies
    }
}

impl<V: Clone, const N: usize> PCol<V, N> {
    /// Mutable access to the element at `i`. If `i` lives in a frozen
    /// chunk currently shared with a snapshot, that one chunk is copied
    /// first (and counted); the rest of the column keeps sharing.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn get_mut(&mut self, i: usize) -> &mut V {
        let frozen = self.full.len() * N;
        if i < frozen {
            let chunk = &mut self.full[i / N];
            if Arc::get_mut(chunk).is_none() {
                self.cow_copies += 1;
            }
            &mut Arc::make_mut(chunk)[i % N]
        } else {
            &mut self.tail[i - frozen]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcol_push_get_iter_across_chunks() {
        let mut c: PCol<u64, 4> = PCol::new();
        assert!(c.is_empty());
        for i in 0..11 {
            c.push(i);
        }
        assert_eq!(c.len(), 11);
        assert_eq!(c.frozen_chunks(), 2);
        for i in 0..11 {
            assert_eq!(*c.get(i as usize), i);
        }
        let all: Vec<u64> = c.iter().copied().collect();
        assert_eq!(all, (0..11).collect::<Vec<_>>());
    }

    #[test]
    fn pcol_clone_shares_until_written() {
        let mut c: PCol<u64, 4> = PCol::new();
        for i in 0..10 {
            c.push(i);
        }
        let snap = c.clone();
        assert_eq!(c.cow_copies(), 0);
        // Tail writes never copy chunks.
        *c.get_mut(9) = 99;
        assert_eq!(c.cow_copies(), 0);
        // First frozen write after a clone copies exactly one chunk...
        *c.get_mut(1) = 91;
        assert_eq!(c.cow_copies(), 1);
        // ...and further writes to the now-unshared chunk are free.
        *c.get_mut(2) = 92;
        assert_eq!(c.cow_copies(), 1);
        *c.get_mut(5) = 95;
        assert_eq!(c.cow_copies(), 2);
        // The snapshot is unaffected by all of it.
        assert_eq!(
            snap.iter().copied().collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
        assert_eq!(*c.get(1), 91);
        assert_eq!(*c.get(9), 99);
    }
}
