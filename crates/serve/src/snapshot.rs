//! Epoch-published immutable snapshots of a live schedule.
//!
//! The serve runtime's single writer turns a [`tvg_model::TvgStream`]
//! into a sequence of [`ServeSnapshot`]s — one per ingest tick, each an
//! immutable structure-sharing view of the live index tagged with its
//! epoch — and publishes them through an [`EpochRing`]. The live
//! index's persistent chunked columns (`tvg_model::pcol`) make each
//! publication O(changes in the tick): the snapshot shares every frozen
//! chunk with the live index, and the stream copies-on-write only the
//! chunks the next tick's mutations land in. Publication is RCU-style:
//! readers never take a lock, never block the writer, and a reader
//! holding an `Arc<ServeSnapshot>` keeps answering from that epoch no
//! matter how far the writer has advanced.
//!
//! The ring is built from safe primitives only (the workspace forbids
//! `unsafe`): one `OnceLock` slot per epoch plus a release/acquire
//! publication counter. The writer fills slot `e` and then bumps the
//! counter; a reader that observes `published > e` is guaranteed (by
//! the release/acquire pair) to see the fully initialized slot. The
//! fast path for a reader is one atomic load, one `OnceLock::get`, and
//! one `Arc` clone — no CAS loop, no contention with other readers.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use tvg_model::stream::LiveIndex;
use tvg_model::Time;

/// One immutable view of the schedule as of a publication epoch: a
/// [`LiveIndex`] snapshot tagged with its epoch. Queries go to
/// [`ServeSnapshot::index`], which every consumer generic over
/// `TemporalIndex` accepts.
///
/// Epoch 0 is the state before any ingest tick; epoch `i + 1` is the
/// state after tick `i`. The wrapped [`LiveIndex`] is a persistent
/// snapshot: it *shares* every frozen chunk with the stream's live
/// index (copy-on-write keeps later mutations away from it), so the
/// snapshot answers queries forever unchanged — the pinning property
/// the `servecheck` oracle pins byte-for-byte — while costing
/// O(changes), not O(index), to take.
#[derive(Debug, Clone)]
pub struct ServeSnapshot<T> {
    epoch: u64,
    index: LiveIndex<T>,
}

impl<T: Time> ServeSnapshot<T> {
    /// Wraps an index snapshot as the view of `epoch`.
    #[must_use]
    pub fn new(epoch: u64, index: LiveIndex<T>) -> Self {
        ServeSnapshot { epoch, index }
    }

    /// The publication epoch this snapshot represents.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The frozen index behind this snapshot.
    #[must_use]
    pub fn index(&self) -> &LiveIndex<T> {
        &self.index
    }
}

/// The lock-free publication channel between one writer and any number
/// of readers: a fixed ring of epoch slots plus a publication counter.
///
/// Capacity is fixed at construction (a serve run knows its tick count
/// up front: `ticks + 1` epochs), which is what lets slots be plain
/// `OnceLock`s — every epoch is written exactly once, in order, and
/// stays readable for the rest of the run.
#[derive(Debug)]
pub struct EpochRing<T> {
    slots: Vec<OnceLock<Arc<ServeSnapshot<T>>>>,
    published: AtomicUsize,
}

impl<T: Time> EpochRing<T> {
    /// An empty ring with room for `capacity` epochs (`0..capacity`).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let mut slots = Vec::with_capacity(capacity);
        slots.resize_with(capacity, OnceLock::new);
        EpochRing {
            slots,
            published: AtomicUsize::new(0),
        }
    }

    /// Total epochs this ring can hold.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// How many epochs are published so far (readers may [`Self::get`]
    /// any epoch below this count).
    #[must_use]
    pub fn published(&self) -> usize {
        self.published.load(Ordering::Acquire)
    }

    /// Publishes the next epoch. Writer-side only, epochs in order:
    /// `snapshot.epoch()` must equal the current published count.
    ///
    /// The slot write happens-before the counter bump (release), so any
    /// reader that observes the new count sees the initialized slot.
    ///
    /// # Panics
    ///
    /// Panics if the ring is full, the epoch is out of order, or the
    /// slot was somehow already set (a second writer).
    pub fn publish(&self, snapshot: ServeSnapshot<T>) {
        let next = self.published.load(Ordering::Relaxed);
        assert!(next < self.slots.len(), "epoch ring is full");
        assert_eq!(
            snapshot.epoch(),
            next as u64,
            "epochs publish in order (expected {next})"
        );
        self.slots[next]
            .set(Arc::new(snapshot))
            .unwrap_or_else(|_| panic!("epoch {next} published twice"));
        self.published.store(next + 1, Ordering::Release);
    }

    /// The snapshot of `epoch`, if it has been published yet. Readers
    /// call this freely from any thread; it never blocks.
    #[must_use]
    pub fn get(&self, epoch: u64) -> Option<Arc<ServeSnapshot<T>>> {
        let published = self.published.load(Ordering::Acquire) as u64;
        if epoch >= published {
            return None;
        }
        let slot = usize::try_from(epoch).expect("published epochs fit in usize");
        self.slots[slot].get().cloned()
    }

    /// The most recently published snapshot, if any.
    #[must_use]
    pub fn latest(&self) -> Option<Arc<ServeSnapshot<T>>> {
        match self.published.load(Ordering::Acquire) {
            0 => None,
            n => self.slots[n - 1].get().cloned(),
        }
    }

    /// Blocks (spin + yield) until `epoch` is published, then returns
    /// it. Used by readers whose dequeued query is pinned to an epoch
    /// the writer has not reached yet.
    ///
    /// # Panics
    ///
    /// Panics if `epoch` is beyond the ring's capacity — such an epoch
    /// can never be published, so waiting would hang forever.
    #[must_use]
    pub fn wait(&self, epoch: u64) -> Arc<ServeSnapshot<T>> {
        assert!(
            epoch < self.capacity() as u64,
            "epoch {epoch} exceeds ring capacity {}",
            self.capacity()
        );
        loop {
            if let Some(snapshot) = self.get(epoch) {
                return snapshot;
            }
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvg_model::stream::TvgStream;
    use tvg_model::{Latency, TemporalIndex};

    fn snapshot_at(epoch: u64) -> ServeSnapshot<u64> {
        let mut s = TvgStream::new(10).expect("representable");
        s.add_node("a");
        ServeSnapshot::new(epoch, s.snapshot())
    }

    #[test]
    fn publication_order_and_visibility() {
        let ring: EpochRing<u64> = EpochRing::new(3);
        assert_eq!(ring.published(), 0);
        assert!(ring.get(0).is_none());
        assert!(ring.latest().is_none());
        ring.publish(snapshot_at(0));
        ring.publish(snapshot_at(1));
        assert_eq!(ring.published(), 2);
        assert_eq!(ring.get(0).expect("published").epoch(), 0);
        assert_eq!(ring.latest().expect("published").epoch(), 1);
        // Unpublished epochs are invisible, not errors.
        assert!(ring.get(2).is_none());
        ring.publish(snapshot_at(2));
        assert_eq!(ring.wait(2).epoch(), 2);
    }

    #[test]
    #[should_panic(expected = "epochs publish in order")]
    fn out_of_order_publication_is_rejected() {
        let ring: EpochRing<u64> = EpochRing::new(3);
        ring.publish(snapshot_at(1));
    }

    #[test]
    fn snapshots_answer_like_their_source() {
        let mut s = TvgStream::<u64>::new(10).expect("representable");
        let u = s.add_node("u");
        let v = s.add_node("v");
        let e = s.add_edge(u, v, 'a', Latency::unit()).expect("valid");
        s.ingest(&[tvg_model::stream::StreamEvent::Up { edge: e, at: 2 }])
            .expect("valid feed");
        let snap = Arc::new(ServeSnapshot::new(0, s.snapshot()));
        assert!(snap.index().is_present(e, &4));
        assert_eq!(
            snap.index().presence(e).spans(),
            s.index().presence(e).spans()
        );
        assert_eq!(snap.index().out_edges(u), s.index().out_edges(u));
        // The snapshot stays frozen while the stream moves on.
        s.ingest(&[tvg_model::stream::StreamEvent::Down { edge: e, at: 5 }])
            .expect("valid feed");
        assert_eq!(snap.index().presence(e).spans(), &[(2, 11)]);
        assert_eq!(s.index().presence(e).spans(), &[(2, 5)]);
    }
}
