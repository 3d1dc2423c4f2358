//! Sorted half-open interval sets over a time domain.
//!
//! An [`IntervalSet`] is the *compiled* form of a presence schedule: the
//! instants at which an edge is present within a horizon, materialized as
//! a normalized (sorted, disjoint, non-adjacent) list of half-open spans
//! `[start, end)`. Where the schedule AST answers `ρ(e, t)` one instant
//! at a time, the compiled form answers "when is the edge *next*
//! present?" by binary search and enumerates present instants while
//! skipping absent stretches entirely — the primitive the indexed journey
//! engine is built on. An [`IntervalSet`] never changes once built; the
//! live index maintains each edge's spans in a copy-on-write
//! [`SpanList`] instead, and both hand queries the same [`SpanView`].

use crate::Time;
use std::iter;
use std::sync::Arc;

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

    /// Builds a set from strictly ascending instants, one span per run
    /// of consecutive instants.
    pub(crate) fn from_ascending(instants: impl IntoIterator<Item = T>) -> Self {
        let mut spans: Vec<(T, T)> = Vec::new();
        for t in instants {
            match spans.last_mut() {
                Some((_, end)) if *end == t => *end = t.succ(),
                _ => spans.push((t.clone(), t.succ())),
            }
        }
        IntervalSet { spans }
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

    /// A borrowed [`SpanView`] over the spans: the representation the
    /// [`crate::TemporalIndex`] trait hands to the query engine, and
    /// where the span searches live.
    #[must_use]
    pub fn view(&self) -> SpanView<'_, T> {
        SpanView(&self.spans)
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

/// One edge's presence under streaming maintenance: a normalized span
/// list that changes only at its right edge, held in a shared slice so
/// that a snapshot of the live index shares it instead of copying it.
///
/// The first `len` entries of `buf` are the spans; the rest is spare
/// room. A write lands in place while no snapshot holds the buffer, and
/// an append that finds no room moves the spans to a buffer about twice
/// as large (four spans for the first). The first write to a buffer a
/// snapshot holds copies exactly the spans, with no spare room, and
/// leaves the snapshot's spans untouched. An edge with no spans holds
/// the empty slice `Arc::default` shares, so it allocates nothing.
#[derive(Debug, Clone)]
pub(crate) struct SpanList<T> {
    /// Not an `Option`: the engine reads it for every out-edge it
    /// scans, and the null test an `Option` adds there cost
    /// `live-repair` about 5 % more run time on a 2-vCPU Xeon VM.
    buf: Arc<[(T, T)]>,
    len: usize,
}

impl<T: Time> SpanList<T> {
    /// The empty list.
    pub(crate) fn new() -> Self {
        SpanList {
            buf: Arc::default(),
            len: 0,
        }
    }

    /// The spans, sorted and disjoint.
    pub(crate) fn spans(&self) -> &[(T, T)] {
        &self.buf[..self.len]
    }

    /// Appends a span at the right end of the list, preserving
    /// normalization: an empty span is dropped, a span starting at or
    /// before the current last end is merged into it (streaming
    /// reopenings land exactly at the previous close).
    ///
    /// Contact events arrive in time order, so presence only ever grows
    /// at the right edge and the list never needs re-sorting.
    ///
    /// # Panics
    ///
    /// Panics if `start` precedes the start of the current last span —
    /// that would be an out-of-order append, which the stream layer
    /// rejects with a typed error before ever reaching this point.
    pub(crate) fn append_span(&mut self, start: T, end: T) {
        if start >= end {
            return;
        }
        if let Some((last_start, last_end)) = self.spans().last() {
            assert!(
                start >= *last_start,
                "append_span out of order: span starts before the current last span"
            );
            if start <= *last_end {
                if end > *last_end {
                    self.set_last_end(end);
                }
                return;
            }
        }
        let len = self.len;
        // The shared empty slice is replaced, never written: skip the
        // atomic uniqueness test on it.
        match (!self.buf.is_empty()).then(|| Arc::get_mut(&mut self.buf)) {
            Some(Some(spans)) if len < spans.len() => spans[len] = (start, end),
            unique => {
                // A buffer a snapshot holds is copied exactly; one only
                // this list holds, or the empty one, is replaced with
                // room to spare.
                let shared = matches!(unique, Some(None));
                let room = if shared { 0 } else { len.max(3) };
                let kept = self.spans().iter().cloned();
                self.buf = kept.chain(iter::repeat_n((start, end), room + 1)).collect();
            }
        }
        self.len += 1;
    }

    /// Truncates the last span to end at `end`, dropping it entirely if
    /// that leaves it empty. The inverse of [`SpanList::append_span`]: a
    /// streaming `Down` event rewrites the provisional right edge (open
    /// through the horizon) to the observed close instant. Dropping a
    /// span writes nothing, so a buffer a snapshot holds stays shared.
    ///
    /// # Panics
    ///
    /// Panics if the list is empty or `end` exceeds the current last end
    /// (truncation never extends; use [`SpanList::append_span`] /
    /// [`SpanList::extend_last_span`] for growth).
    pub(crate) fn truncate_last_span(&mut self, end: &T) {
        let (start, last_end) = self.spans().last().expect("truncate on an empty set");
        assert!(
            *end <= *last_end,
            "truncate_last_span would extend the span"
        );
        if *end <= *start {
            self.len -= 1;
        } else {
            self.set_last_end(end.clone());
        }
    }

    /// Extends the last span's end to `end` (a horizon extension moving
    /// an open edge's provisional close further out).
    ///
    /// # Panics
    ///
    /// Panics if the list is empty or `end` precedes the current last
    /// end.
    pub(crate) fn extend_last_span(&mut self, end: &T) {
        let (_, last_end) = self.spans().last().expect("extend on an empty set");
        assert!(*end >= *last_end, "extend_last_span would shrink the span");
        self.set_last_end(end.clone());
    }

    /// Moves the last span's end to `end`: in place while no snapshot
    /// holds the buffer, else in a copy sized to the spans. The list
    /// must not be empty.
    fn set_last_end(&mut self, end: T) {
        let last = self.len - 1;
        match Arc::get_mut(&mut self.buf) {
            Some(spans) => spans[last].1 = end,
            None => {
                let start = self.buf[last].0.clone();
                let kept = self.buf[..last].iter().cloned();
                self.buf = kept.chain(iter::once((start, end))).collect();
            }
        }
    }
}

/// A borrowed, copyable view of a normalized span list: what every
/// [`crate::TemporalIndex`] hands the query engine for an edge's
/// presence, whether the spans live in an [`IntervalSet`], a live
/// index's copy-on-write span list, or a `.tvgi` file's decoded span
/// arena. Every search primitive the journey engine needs lives here
/// once.
///
/// The invariants of [`IntervalSet`] are assumed: spans sorted by start,
/// disjoint, non-empty, non-adjacent.
#[derive(Debug, PartialEq, Eq)]
pub struct SpanView<'a, T>(pub(crate) &'a [(T, T)]);

// A view is a shared slice, so it is `Copy` for every time domain
// (a derive would demand `T: Copy`).
impl<T> Clone for SpanView<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for SpanView<'_, T> {}

impl<'a, T: Time> SpanView<'a, T> {
    /// The spans, sorted and disjoint.
    #[must_use]
    pub fn spans(self) -> &'a [(T, T)] {
        self.0
    }

    /// Number of maximal spans.
    #[must_use]
    pub fn num_spans(self) -> usize {
        self.0.len()
    }

    /// `true` iff no instant is in the set.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0.is_empty()
    }

    /// Membership test by binary search.
    #[must_use]
    pub fn contains(self, t: &T) -> bool {
        let i = self.0.partition_point(|(start, _)| start <= t);
        i > 0 && self.0[i - 1].1 > *t
    }

    /// The earliest member `>= t`, by binary search. `None` if the set
    /// has no member at or after `t`.
    #[must_use]
    pub fn next_at_or_after(self, t: &T) -> Option<T> {
        let i = self.0.partition_point(|(_, end)| end <= t);
        let (start, _) = self.0.get(i)?;
        Some(if start > t { start.clone() } else { t.clone() })
    }

    /// The earliest member of the inclusive window `[from, until]` —
    /// the compiled counterpart of `Presence::next_present_within`.
    #[must_use]
    pub fn next_within(self, from: &T, until: &T) -> Option<T> {
        self.next_at_or_after(from).filter(|t| t <= until)
    }

    /// Iterates the members of the inclusive window `[from, until]` in
    /// increasing order, jumping over absent stretches span to span.
    ///
    /// The window endpoints are borrowed, not cloned: on time domains
    /// with owned representations (the generic fallback the narrow u32
    /// fast path decays to) constructing the iterator allocates nothing.
    #[must_use]
    pub fn instants_within(self, from: &'a T, until: &'a T) -> Instants<'a, T> {
        Instants {
            spans: &self.0[self.0.partition_point(|(_, end)| end <= from)..],
            cur: None,
            from,
            until,
        }
    }
}

/// Iterator over the instants of an [`IntervalSet`] within a window.
///
/// Yields each present instant once, in increasing order; consecutive
/// instants inside a span step by `succ`, gaps between spans are skipped
/// in O(1).
#[derive(Debug)]
pub struct Instants<'a, T> {
    /// The spans not yet stepped past.
    spans: &'a [(T, T)],
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
        while let Some(((start, end), rest)) = self.spans.split_first() {
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
            self.spans = rest;
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
        assert_eq!(s.spans().len(), 2);
        assert!(IntervalSet::<u64>::empty().view().is_empty());
        assert!(set(&[(3, 3)]).view().is_empty());
    }

    #[test]
    fn contains_by_binary_search() {
        let s = set(&[(2, 4), (7, 8)]);
        for t in 0u64..12 {
            assert_eq!(
                s.view().contains(&t),
                (2..4).contains(&t) || t == 7,
                "t={t}"
            );
        }
    }

    #[test]
    fn next_queries() {
        let s = set(&[(2, 4), (7, 8)]);
        assert_eq!(s.view().next_at_or_after(&0), Some(2));
        assert_eq!(s.view().next_at_or_after(&3), Some(3));
        assert_eq!(s.view().next_at_or_after(&4), Some(7));
        assert_eq!(s.view().next_at_or_after(&8), None);
        assert_eq!(s.view().next_within(&0, &1), None);
        assert_eq!(s.view().next_within(&0, &2), Some(2));
        assert_eq!(s.view().next_within(&4, &7), Some(7));
    }

    #[test]
    fn instants_enumerate_window() {
        let s = set(&[(2, 4), (7, 9)]);
        let all: Vec<u64> = s.view().instants_within(&0, &20).collect();
        assert_eq!(all, vec![2, 3, 7, 8]);
        let mid: Vec<u64> = s.view().instants_within(&3, &7).collect();
        assert_eq!(mid, vec![3, 7]);
        let none: Vec<u64> = s.view().instants_within(&9, &20).collect();
        assert!(none.is_empty());
        let empty_window: Vec<u64> = s.view().instants_within(&8, &7).collect();
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
            assert_eq!(
                u.view().contains(&t),
                a.view().contains(&t) || b.view().contains(&t),
                "u t={t}"
            );
            assert_eq!(
                i.view().contains(&t),
                a.view().contains(&t) && b.view().contains(&t),
                "i t={t}"
            );
            assert_eq!(
                c.view().contains(&t),
                t < 25 && !a.view().contains(&t),
                "c t={t}"
            );
        }
    }

    /// A list built by appending `spans` in order.
    fn list(spans: &[(u64, u64)]) -> SpanList<u64> {
        let mut l = SpanList::new();
        for &(start, end) in spans {
            l.append_span(start, end);
        }
        l
    }

    #[test]
    fn append_span_grows_at_the_right_edge() {
        let mut s = SpanList::<u64>::new();
        // A span-less list holds the one shared empty slice.
        assert!(Arc::ptr_eq(&s.buf, &SpanList::<u64>::new().buf));
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
        let mut s = list(&[(1, 4), (6, 20)]);
        s.truncate_last_span(&9);
        assert_eq!(s.spans(), &[(1, 4), (6, 9)]);
        s.extend_last_span(&15);
        assert_eq!(s.spans(), &[(1, 4), (6, 15)]);
        // Truncating to the start drops the span entirely.
        s.truncate_last_span(&6);
        assert_eq!(s.spans(), &[(1, 4)]);
        // Room freed by the drop is reused.
        s.append_span(8, 10);
        assert_eq!(s.spans(), &[(1, 4), (8, 10)]);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn append_span_rejects_out_of_order() {
        let mut s = list(&[(5, 9)]);
        s.append_span(2, 3);
    }

    #[test]
    #[should_panic(expected = "would extend")]
    fn truncate_never_extends() {
        let mut s = list(&[(1, 4)]);
        s.truncate_last_span(&9);
    }

    #[test]
    fn pop_and_truncate_leave_a_sharing_snapshot_intact() {
        let mut s = list(&[(1, 4), (6, 20)]);
        let snap = s.clone();
        s.truncate_last_span(&6); // a pop writes nothing...
        assert_eq!(s.spans().as_ptr(), snap.spans().as_ptr());
        s.truncate_last_span(&2); // ...a truncation copies first
        assert_ne!(s.spans().as_ptr(), snap.spans().as_ptr());
        assert_eq!(s.spans(), &[(1, 2)]);
        assert_eq!(snap.spans(), &[(1, 4), (6, 20)]);
        // An append after a pop on a shared buffer copies too.
        let mut t = snap.clone();
        t.truncate_last_span(&6);
        t.append_span(7, 9);
        assert_eq!(t.spans(), &[(1, 4), (7, 9)]);
        assert_eq!(snap.spans(), &[(1, 4), (6, 20)]);
    }

    #[test]
    fn extend_on_a_shared_list_copies_it() {
        let mut s = list(&[(1, 4), (6, 20)]);
        let snap = s.clone();
        s.extend_last_span(&30);
        assert_ne!(s.spans().as_ptr(), snap.spans().as_ptr());
        assert_eq!(s.spans(), &[(1, 4), (6, 30)]);
        assert_eq!(snap.spans(), &[(1, 4), (6, 20)]);
        // The copy holds exactly the spans, with no spare room.
        assert_eq!(s.buf.len(), 2);
    }

    #[test]
    fn unshared_appends_with_room_stay_in_place() {
        let mut s = list(&[(1, 2), (3, 4)]);
        let ptr = s.spans().as_ptr();
        let room = s.buf.len();
        assert!(room > 2, "an unshared append that grows leaves room");
        for k in 2..room as u64 {
            s.append_span(2 * k + 1, 2 * k + 2);
            assert_eq!(s.spans().as_ptr(), ptr);
        }
        assert_eq!(s.spans().len(), room);
    }

    #[test]
    fn point_and_up_to() {
        assert_eq!(IntervalSet::point(5u64).spans(), &[(5, 6)]);
        assert_eq!(IntervalSet::up_to(3u64).spans(), &[(0, 3)]);
        assert!(IntervalSet::up_to(0u64).view().is_empty());
    }
}
