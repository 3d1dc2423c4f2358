//! Persistent, structure-sharing columns for the live index.
//!
//! The streaming regime publishes immutable snapshots of a mutating
//! [`crate::LiveIndex`] once per tick; flat `Vec` columns would make each
//! one an O(index) deep copy. A persistent column (`PCol`, private to the
//! crate) keeps its elements in chunks of [`COL_CHUNK`] behind `Arc`, and
//! the list of chunk handles behind one more `Arc`. A snapshot clones
//! that one handle, so a column no tick writes stays shared whole, and
//! the first write after a snapshot copies the handle list once and then
//! only the chunk it lands in (`Arc::make_mut`). Appends go to a small
//! owned tail, frozen into a chunk when full. A column is generic over
//! its chunk: a `Vec` for the one-element graph column, and for presence
//! a span arena, whose copy is one allocation with no per-edge handle.
//!
//! A column counts how many frozen chunks it shares and how many chunk
//! copies its publications cost, which is what the serve runtime's
//! publication metrics report: on a healthy schedule the copied count
//! per tick tracks the tick's change set, not the index size. Copies are
//! counted by publication: the first write to a chunk after each
//! snapshot counts one, even if that snapshot is gone.

use std::sync::Arc;

/// Chunk capacity of the live index's presence column.
pub const COL_CHUNK: usize = 64;

/// What a [`PCol`] keeps per chunk: up to `N` elements, appended one at
/// a time. A clone is the copy a write under a snapshot pays.
pub(crate) trait Chunk: Clone {
    type Item;
    fn with_capacity(n: usize) -> Self;
    fn len(&self) -> usize;
    fn push(&mut self, item: Self::Item);
}

impl<V: Clone> Chunk for Vec<V> {
    type Item = V;
    fn with_capacity(n: usize) -> Self {
        Vec::with_capacity(n)
    }
    fn len(&self) -> usize {
        <[V]>::len(self)
    }
    fn push(&mut self, v: V) {
        Vec::push(self, v);
    }
}

/// A chunked persistent column: `Arc`-shared chunks of `N` elements
/// behind one shared handle list, plus an owned append tail.
#[derive(Debug, Clone)]
pub(crate) struct PCol<C, const N: usize> {
    /// Frozen chunks of exactly `N` elements each.
    full: Arc<Vec<Arc<C>>>,
    /// Per frozen chunk: the generation it was last written or frozen
    /// in. Only the writer reads them, so a snapshot's are empty.
    stamps: Vec<u64>,
    /// Owned append edge, fewer than `N` elements.
    tail: C,
    /// How many snapshots this column has published.
    generation: u64,
    /// How many chunk copies publications have cost so far.
    cow_copies: u64,
}

impl<C: Chunk, const N: usize> PCol<C, N> {
    /// An empty column.
    pub(crate) fn new() -> Self {
        const { assert!(N > 0) };
        PCol {
            full: Arc::default(),
            stamps: Vec::new(),
            tail: C::with_capacity(0),
            generation: 0,
            cow_copies: 0,
        }
    }

    /// Number of elements.
    pub(crate) fn len(&self) -> usize {
        self.full.len() * N + self.tail.len()
    }

    /// Appends an element, freezing a full tail into a shared chunk.
    pub(crate) fn push(&mut self, item: C::Item) {
        self.tail.push(item);
        if self.tail.len() == N {
            let chunk = std::mem::replace(&mut self.tail, C::with_capacity(N));
            Arc::make_mut(&mut self.full).push(Arc::new(chunk));
            self.stamps.push(self.generation);
        }
    }

    /// The chunk holding element `i`, and `i`'s place in it.
    pub(crate) fn chunk(&self, i: usize) -> (&C, usize) {
        match self.full.get(i / N) {
            Some(chunk) => (chunk, i % N),
            None => (&self.tail, i - self.full.len() * N),
        }
    }

    /// [`Self::chunk`] for writing: copies the chunk first if a snapshot
    /// still shares it. The first write to a frozen chunk since the last
    /// [`Self::snapshot`] counts one copy.
    pub(crate) fn chunk_mut(&mut self, i: usize) -> (&mut C, usize) {
        let k = i / N;
        if k < self.full.len() {
            let stamp = &mut self.stamps[k];
            if *stamp != self.generation {
                *stamp = self.generation;
                self.cow_copies += 1;
            }
            (Arc::make_mut(&mut Arc::make_mut(&mut self.full)[k]), i % N)
        } else {
            (&mut self.tail, i - self.full.len() * N)
        }
    }

    /// A copy sharing every frozen chunk. Starts a new generation: the
    /// next write to each frozen chunk counts one copy.
    pub(crate) fn snapshot(&mut self) -> Self {
        self.generation += 1;
        PCol {
            full: Arc::clone(&self.full),
            stamps: Vec::new(),
            tail: self.tail.clone(),
            generation: self.generation,
            cow_copies: self.cow_copies,
        }
    }

    /// Number of frozen (sharable) chunks.
    pub(crate) fn frozen_chunks(&self) -> u64 {
        self.full.len() as u64
    }

    /// How many chunk copies publications have cost so far.
    pub(crate) fn cow_copies(&self) -> u64 {
        self.cow_copies
    }

    /// `true` iff both columns share one frozen handle list.
    #[cfg(test)]
    pub(crate) fn shares_chunks_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.full, &other.full)
    }
}

impl<V: Clone, const N: usize> PCol<Vec<V>, N> {
    /// The element at `i`.
    pub(crate) fn get(&self, i: usize) -> &V {
        let (chunk, j) = self.chunk(i);
        &chunk[j]
    }

    /// The element at `i` for writing, as [`Self::chunk_mut`] gives it.
    pub(crate) fn get_mut(&mut self, i: usize) -> &mut V {
        let (chunk, j) = self.chunk_mut(i);
        &mut chunk[j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcol_push_get_across_chunks() {
        let mut c: PCol<Vec<u64>, 4> = PCol::new();
        assert_eq!(c.len(), 0);
        for i in 0..11 {
            c.push(i);
        }
        assert_eq!(c.len(), 11);
        assert_eq!(c.frozen_chunks(), 2);
        for i in 0..11 {
            assert_eq!(*c.get(i as usize), i);
        }
    }

    #[test]
    fn pcol_clone_shares_until_written() {
        let mut c: PCol<Vec<u64>, 4> = PCol::new();
        for i in 0..10 {
            c.push(i);
        }
        let snap = c.snapshot();
        assert!(c.shares_chunks_with(&snap));
        assert_eq!(c.cow_copies(), 0);
        // Tail writes never copy chunks.
        *c.get_mut(9) = 99;
        assert_eq!(c.cow_copies(), 0);
        assert!(c.shares_chunks_with(&snap));
        // First frozen write after a clone copies exactly one chunk...
        *c.get_mut(1) = 91;
        assert_eq!(c.cow_copies(), 1);
        assert!(!c.shares_chunks_with(&snap));
        // ...and further writes to the now-unshared chunk are free.
        *c.get_mut(2) = 92;
        assert_eq!(c.cow_copies(), 1);
        *c.get_mut(5) = 95;
        assert_eq!(c.cow_copies(), 2);
        // The snapshot is unaffected by all of it.
        assert_eq!(
            (0..10).map(|i| *snap.get(i)).collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
        assert_eq!(*c.get(1), 91);
        assert_eq!(*c.get(9), 99);
    }
}
