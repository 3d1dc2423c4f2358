//! Sorted half-open interval sets over a time domain.
//!
//! An [`IntervalSet`] is the *compiled* form of a presence schedule: the
//! instants at which an edge is present within a horizon, materialized as
//! a normalized (sorted, disjoint, non-adjacent) list of half-open spans
//! `[start, end)`. Where the schedule AST answers `ρ(e, t)` one instant
//! at a time, the compiled form answers "when is the edge *next*
//! present?" by binary search and enumerates present instants while
//! skipping absent stretches entirely — the primitive the indexed journey
//! engine is built on.

use crate::Time;

/// A normalized set of half-open time spans `[start, end)`.
///
/// Invariants (maintained by every constructor): spans are sorted by
/// start, pairwise disjoint, non-empty, and non-adjacent (touching spans
/// are merged).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalSet<T> {
    spans: Vec<(T, T)>,
}

impl<T: Time> IntervalSet<T> {
    /// The empty set.
    #[must_use]
    pub fn empty() -> Self {
        IntervalSet { spans: Vec::new() }
    }

    /// Builds a set from arbitrary spans, normalizing: empty spans are
    /// dropped, overlapping or adjacent spans are merged, order is fixed.
    #[must_use]
    pub fn from_spans(mut spans: Vec<(T, T)>) -> Self {
        spans.retain(|(s, e)| s < e);
        spans.sort();
        let mut normalized: Vec<(T, T)> = Vec::with_capacity(spans.len());
        for (s, e) in spans {
            match normalized.last_mut() {
                Some((_, prev_end)) if s <= *prev_end => {
                    if e > *prev_end {
                        *prev_end = e;
                    }
                }
                _ => normalized.push((s, e)),
            }
        }
        IntervalSet { spans: normalized }
    }

    /// The single-instant set `{t}`.
    #[must_use]
    pub fn point(t: T) -> Self {
        let end = t.succ();
        IntervalSet {
            spans: vec![(t, end)],
        }
    }

    /// The contiguous set `[0, end)` (empty if `end == 0`).
    #[must_use]
    pub fn up_to(end: T) -> Self {
        if end == T::zero() {
            return IntervalSet::empty();
        }
        IntervalSet {
            spans: vec![(T::zero(), end)],
        }
    }

    /// The normalized spans, sorted and disjoint.
    #[must_use]
    pub fn spans(&self) -> &[(T, T)] {
        &self.spans
    }

    /// A borrowed [`SpanView`] over the spans — the representation the
    /// [`crate::TemporalIndex`] trait hands to the query engine, shared
    /// with the flat on-disk arenas of `crate::tvgi`.
    #[must_use]
    pub fn view(&self) -> SpanView<'_, T> {
        SpanView::Pairs(&self.spans)
    }

    /// Number of maximal spans (the set's *event count* is twice this).
    #[must_use]
    pub fn num_spans(&self) -> usize {
        self.spans.len()
    }

    /// `true` iff no instant is in the set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Membership test by binary search.
    #[must_use]
    pub fn contains(&self, t: &T) -> bool {
        self.view().contains(t)
    }

    /// The earliest member `>= t`, by binary search. `None` if the set
    /// has no member at or after `t`.
    #[must_use]
    pub fn next_at_or_after(&self, t: &T) -> Option<T> {
        self.view().next_at_or_after(t)
    }

    /// The earliest member of the inclusive window `[from, until]` —
    /// the compiled counterpart of `Presence::next_present_within`.
    #[must_use]
    pub fn next_within(&self, from: &T, until: &T) -> Option<T> {
        self.view().next_within(from, until)
    }

    /// Iterates the members of the inclusive window `[from, until]` in
    /// increasing order, jumping over absent stretches span to span.
    ///
    /// The window endpoints are borrowed, not cloned: on time domains
    /// with owned representations (the generic fallback the narrow u32
    /// fast path decays to) constructing the iterator allocates nothing.
    #[must_use]
    pub fn instants_within<'a>(&'a self, from: &'a T, until: &'a T) -> Instants<'a, T> {
        self.view().instants_within(from, until)
    }

    /// Set union.
    #[must_use]
    pub fn union(&self, other: &Self) -> Self {
        let mut spans = self.spans.clone();
        spans.extend(other.spans.iter().cloned());
        IntervalSet::from_spans(spans)
    }

    /// Set intersection (two-pointer sweep over normalized spans).
    #[must_use]
    pub fn intersect(&self, other: &Self) -> Self {
        let (mut i, mut j) = (0, 0);
        let mut out = Vec::new();
        while i < self.spans.len() && j < other.spans.len() {
            let (a_start, a_end) = &self.spans[i];
            let (b_start, b_end) = &other.spans[j];
            let start = a_start.max(b_start).clone();
            let end = a_end.min(b_end).clone();
            if start < end {
                out.push((start, end));
            }
            if a_end <= b_end {
                i += 1;
            } else {
                j += 1;
            }
        }
        // Already sorted and disjoint; from_spans just revalidates.
        IntervalSet::from_spans(out)
    }

    /// Appends a span at the right end of the set, preserving
    /// normalization: an empty span is dropped, a span starting at or
    /// before the current last end is merged into it (streaming
    /// reopenings land exactly at the previous close).
    ///
    /// This is the maintenance primitive of the live (streaming) index:
    /// contact events arrive in time order, so presence only ever grows
    /// at the right edge and the whole set never needs re-sorting.
    ///
    /// # Panics
    ///
    /// Panics if `start` precedes the start of the current last span —
    /// that would be an out-of-order append, which the stream layer
    /// rejects with a typed error before ever reaching this point.
    pub fn append_span(&mut self, start: T, end: T) {
        if start >= end {
            return;
        }
        match self.spans.last_mut() {
            Some((last_start, last_end)) => {
                assert!(
                    start >= *last_start,
                    "append_span out of order: span starts before the current last span"
                );
                if start <= *last_end {
                    if end > *last_end {
                        *last_end = end;
                    }
                } else {
                    self.spans.push((start, end));
                }
            }
            None => self.spans.push((start, end)),
        }
    }

    /// Truncates the last span to end at `end`, dropping it entirely if
    /// that leaves it empty. The inverse maintenance primitive of
    /// [`IntervalSet::append_span`]: a streaming `Down` event rewrites
    /// the provisional right edge (open through the horizon) to the
    /// observed close instant.
    ///
    /// # Panics
    ///
    /// Panics if the set is empty or `end` exceeds the current last end
    /// (truncation never extends; use [`IntervalSet::append_span`] /
    /// [`IntervalSet::extend_last_span`] for growth).
    pub fn truncate_last_span(&mut self, end: &T) {
        let (start, last_end) = self.spans.last_mut().expect("truncate on an empty set");
        assert!(
            *end <= *last_end,
            "truncate_last_span would extend the span"
        );
        if *end <= *start {
            self.spans.pop();
        } else {
            *last_end = end.clone();
        }
    }

    /// Extends the last span's end to `end` (a horizon extension moving
    /// an open edge's provisional close further out).
    ///
    /// # Panics
    ///
    /// Panics if the set is empty or `end` precedes the current last end.
    pub fn extend_last_span(&mut self, end: &T) {
        let (_, last_end) = self.spans.last_mut().expect("extend on an empty set");
        assert!(*end >= *last_end, "extend_last_span would shrink the span");
        *last_end = end.clone();
    }

    /// Complement within `[0, end)`.
    #[must_use]
    pub fn complement_within(&self, end: &T) -> Self {
        let mut out = Vec::new();
        let mut cursor = T::zero();
        for (s, e) in &self.spans {
            if *s >= *end {
                break;
            }
            if cursor < *s {
                out.push((cursor.clone(), s.clone()));
            }
            if *e > cursor {
                cursor = e.clone();
            }
        }
        if cursor < *end {
            out.push((cursor, end.clone()));
        }
        IntervalSet { spans: out }
    }
}

/// A borrowed, copyable view of a normalized span list — the common
/// denominator between the in-memory [`IntervalSet`] (native `(T, T)`
/// pairs) and the on-disk `.tvgi` arenas (flat interleaved
/// `[s₀, e₀, s₁, e₁, …]` words mapped straight out of the file). Every
/// search primitive the journey engine needs lives here once, so the two
/// representations can never drift apart.
///
/// The invariants of [`IntervalSet`] are assumed: spans sorted by start,
/// disjoint, non-empty, non-adjacent. The `Flat` variant additionally
/// requires even length (validated when a `.tvgi` file is opened, not
/// per query).
#[derive(Debug, Clone, Copy)]
pub enum SpanView<'a, T> {
    /// Borrowed normalized pairs.
    Pairs(&'a [(T, T)]),
    /// Flat interleaved start/end words from a file arena.
    Flat(&'a [T]),
}

impl<'a, T: Time> SpanView<'a, T> {
    /// Number of maximal spans.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            SpanView::Pairs(s) => s.len(),
            SpanView::Flat(f) => f.len() / 2,
        }
    }

    /// `true` iff no instant is in the set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Start of span `i` (inclusive).
    #[must_use]
    pub fn start(&self, i: usize) -> &'a T {
        match self {
            SpanView::Pairs(s) => &s[i].0,
            SpanView::Flat(f) => &f[2 * i],
        }
    }

    /// End of span `i` (exclusive).
    #[must_use]
    pub fn end(&self, i: usize) -> &'a T {
        match self {
            SpanView::Pairs(s) => &s[i].1,
            SpanView::Flat(f) => &f[2 * i + 1],
        }
    }

    /// The spans materialized as owned pairs (allocates; for oracles and
    /// tests, not query paths).
    #[must_use]
    pub fn spans(&self) -> Vec<(T, T)> {
        (0..self.len())
            .map(|i| (self.start(i).clone(), self.end(i).clone()))
            .collect()
    }

    /// First span index for which `pred` is false — the span-list
    /// counterpart of `slice::partition_point`, shared by both layouts.
    fn partition_point(&self, pred: impl Fn(usize) -> bool) -> usize {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(mid) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Membership test by binary search.
    #[must_use]
    pub fn contains(&self, t: &T) -> bool {
        let i = self.partition_point(|i| self.start(i) <= t);
        i > 0 && self.end(i - 1) > t
    }

    /// The earliest member `>= t`, by binary search.
    #[must_use]
    pub fn next_at_or_after(&self, t: &T) -> Option<T> {
        let i = self.partition_point(|i| self.end(i) <= t);
        if i >= self.len() {
            return None;
        }
        let start = self.start(i);
        Some(if start > t { start.clone() } else { t.clone() })
    }

    /// The earliest member of the inclusive window `[from, until]`.
    #[must_use]
    pub fn next_within(&self, from: &T, until: &T) -> Option<T> {
        self.next_at_or_after(from).filter(|t| t <= until)
    }

    /// Iterates the members of the inclusive window `[from, until]` in
    /// increasing order (see [`IntervalSet::instants_within`]).
    #[must_use]
    pub fn instants_within(self, from: &'a T, until: &'a T) -> Instants<'a, T> {
        let idx = self.partition_point(|i| self.end(i) <= from);
        Instants {
            view: self,
            idx,
            cur: None,
            from,
            until,
        }
    }
}

/// Logical equality: two views are equal when they describe the same
/// span list, regardless of layout.
impl<T: Time> PartialEq for SpanView<'_, T> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && (0..self.len())
                .all(|i| self.start(i) == other.start(i) && self.end(i) == other.end(i))
    }
}

impl<T: Time> Eq for SpanView<'_, T> {}

/// Iterator over the instants of an [`IntervalSet`] within a window.
///
/// Yields each present instant once, in increasing order; consecutive
/// instants inside a span step by `succ`, gaps between spans are skipped
/// in O(1).
#[derive(Debug)]
pub struct Instants<'a, T> {
    view: SpanView<'a, T>,
    idx: usize,
    /// The cursor once stepping has begun; before the first yield the
    /// borrowed `from` endpoint serves as the cursor, so an iterator
    /// that is built but never advanced clones no time values at all.
    cur: Option<T>,
    from: &'a T,
    until: &'a T,
}

impl<T: Time> Iterator for Instants<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        while self.idx < self.view.len() {
            let (start, end) = (self.view.start(self.idx), self.view.end(self.idx));
            let cursor = self.cur.as_ref().unwrap_or(self.from);
            let candidate = if cursor >= start {
                cursor.clone()
            } else {
                start.clone()
            };
            if candidate > *self.until {
                return None;
            }
            if candidate < *end {
                self.cur = Some(candidate.succ());
                return Some(candidate);
            }
            self.idx += 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(spans: &[(u64, u64)]) -> IntervalSet<u64> {
        IntervalSet::from_spans(spans.to_vec())
    }

    #[test]
    fn normalization_merges_and_sorts() {
        let s = set(&[(5, 7), (0, 2), (2, 3), (6, 9), (4, 4)]);
        assert_eq!(s.spans(), &[(0, 3), (5, 9)]);
        assert_eq!(s.num_spans(), 2);
        assert!(IntervalSet::<u64>::empty().is_empty());
        assert!(set(&[(3, 3)]).is_empty());
    }

    #[test]
    fn contains_by_binary_search() {
        let s = set(&[(2, 4), (7, 8)]);
        for t in 0u64..12 {
            assert_eq!(s.contains(&t), (2..4).contains(&t) || t == 7, "t={t}");
        }
    }

    #[test]
    fn next_queries() {
        let s = set(&[(2, 4), (7, 8)]);
        assert_eq!(s.next_at_or_after(&0), Some(2));
        assert_eq!(s.next_at_or_after(&3), Some(3));
        assert_eq!(s.next_at_or_after(&4), Some(7));
        assert_eq!(s.next_at_or_after(&8), None);
        assert_eq!(s.next_within(&0, &1), None);
        assert_eq!(s.next_within(&0, &2), Some(2));
        assert_eq!(s.next_within(&4, &7), Some(7));
    }

    #[test]
    fn instants_enumerate_window() {
        let s = set(&[(2, 4), (7, 9)]);
        let all: Vec<u64> = s.instants_within(&0, &20).collect();
        assert_eq!(all, vec![2, 3, 7, 8]);
        let mid: Vec<u64> = s.instants_within(&3, &7).collect();
        assert_eq!(mid, vec![3, 7]);
        let none: Vec<u64> = s.instants_within(&9, &20).collect();
        assert!(none.is_empty());
        let empty_window: Vec<u64> = s.instants_within(&8, &7).collect();
        assert!(empty_window.is_empty());
    }

    #[test]
    fn union_intersect_complement() {
        let a = set(&[(0, 4), (10, 12)]);
        let b = set(&[(2, 6), (11, 15)]);
        assert_eq!(a.union(&b).spans(), &[(0, 6), (10, 15)]);
        assert_eq!(a.intersect(&b).spans(), &[(2, 4), (11, 12)]);
        assert_eq!(a.complement_within(&14).spans(), &[(4, 10), (12, 14)]);
        assert_eq!(
            IntervalSet::<u64>::empty().complement_within(&3).spans(),
            &[(0, 3)]
        );
        assert_eq!(a.complement_within(&0).spans(), &[] as &[(u64, u64)]);
    }

    #[test]
    fn set_algebra_agrees_with_membership() {
        let a = set(&[(1, 5), (8, 9), (12, 20)]);
        let b = set(&[(0, 2), (4, 10), (13, 14)]);
        let (u, i, c) = (a.union(&b), a.intersect(&b), a.complement_within(&25));
        for t in 0u64..30 {
            assert_eq!(u.contains(&t), a.contains(&t) || b.contains(&t), "u t={t}");
            assert_eq!(i.contains(&t), a.contains(&t) && b.contains(&t), "i t={t}");
            assert_eq!(c.contains(&t), t < 25 && !a.contains(&t), "c t={t}");
        }
    }

    #[test]
    fn append_span_grows_at_the_right_edge() {
        let mut s = IntervalSet::<u64>::empty();
        s.append_span(2, 5);
        s.append_span(5, 5); // empty: dropped
        assert_eq!(s.spans(), &[(2, 5)]);
        s.append_span(5, 7); // adjacent: merged
        assert_eq!(s.spans(), &[(2, 7)]);
        s.append_span(9, 12); // gap: new span
        assert_eq!(s.spans(), &[(2, 7), (9, 12)]);
        s.append_span(10, 11); // contained: absorbed
        assert_eq!(s.spans(), &[(2, 7), (9, 12)]);
    }

    #[test]
    fn truncate_and_extend_rewrite_the_open_edge() {
        let mut s = set(&[(1, 4), (6, 20)]);
        s.truncate_last_span(&9);
        assert_eq!(s.spans(), &[(1, 4), (6, 9)]);
        s.extend_last_span(&15);
        assert_eq!(s.spans(), &[(1, 4), (6, 15)]);
        // Truncating to the start drops the span entirely.
        s.truncate_last_span(&6);
        assert_eq!(s.spans(), &[(1, 4)]);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn append_span_rejects_out_of_order() {
        let mut s = set(&[(5, 9)]);
        s.append_span(2, 3);
    }

    #[test]
    #[should_panic(expected = "would extend")]
    fn truncate_never_extends() {
        let mut s = set(&[(1, 4)]);
        s.truncate_last_span(&9);
    }

    #[test]
    fn point_and_up_to() {
        assert_eq!(IntervalSet::point(5u64).spans(), &[(5, 6)]);
        assert_eq!(IntervalSet::up_to(3u64).spans(), &[(0, 3)]);
        assert!(IntervalSet::up_to(0u64).is_empty());
    }
}
