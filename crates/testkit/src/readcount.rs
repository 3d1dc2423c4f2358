//! A [`TemporalIndex`] wrapper that counts span-list reads, so a test
//! can pin how much presence an engine run reads without a clock.

use std::sync::atomic::{AtomicU64, Ordering};
use tvg_model::{EdgeId, NodeId, SpanView, TemporalIndex, Time};

/// Delegates every required [`TemporalIndex`] method to the wrapped
/// index and counts the [`TemporalIndex::presence`] calls. The provided
/// methods keep their default bodies, so the span reads they make are
/// counted too.
#[derive(Debug)]
pub struct CountingIndex<'a, I> {
    inner: &'a I,
    reads: AtomicU64,
}

impl<'a, I> CountingIndex<'a, I> {
    /// Wraps `inner` with a zero count.
    #[must_use]
    pub fn new(inner: &'a I) -> Self {
        CountingIndex {
            inner,
            reads: AtomicU64::new(0),
        }
    }

    /// The `presence` calls made so far.
    #[must_use]
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }
}

impl<T: Time, I: TemporalIndex<T>> TemporalIndex<T> for CountingIndex<'_, I> {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn num_edges(&self) -> usize {
        self.inner.num_edges()
    }

    fn horizon(&self) -> &T {
        self.inner.horizon()
    }

    fn presence(&self, e: EdgeId) -> SpanView<'_, T> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.presence(e)
    }

    fn arrival_is_monotone(&self, e: EdgeId) -> bool {
        self.inner.arrival_is_monotone(e)
    }

    fn out_edges(&self, n: NodeId) -> &[EdgeId] {
        self.inner.out_edges(n)
    }

    fn dst(&self, e: EdgeId) -> NodeId {
        self.inner.dst(e)
    }

    fn arrival(&self, e: EdgeId, t: &T) -> Option<T> {
        self.inner.arrival(e, t)
    }
}
