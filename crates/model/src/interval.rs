//! Sorted half-open interval sets over a time domain.
//!
//! An [`IntervalSet`] is the *compiled* form of a presence schedule: the
//! instants at which an edge is present within a horizon, materialized as
//! a normalized (sorted, disjoint, non-adjacent) list of half-open spans
//! `[start, end)`. Where the schedule AST answers `ρ(e, t)` one instant
//! at a time, the compiled form answers "when is the edge *next*
//! present?" by binary search and enumerates present instants while
//! skipping absent stretches entirely — the primitive the indexed journey
//! engine is built on. An [`IntervalSet`] never changes once built. The
//! live index keeps the spans of each chunk of edges in one arena
//! instead, one run of slots per edge that changes only at its right
//! edge, and both hand queries the same contiguous [`SpanView`].

use crate::pcol::Chunk;
use crate::Time;
use std::ops::Range;

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

/// The spans of one chunk of edges under streaming maintenance: the
/// chunk type of the live index's presence column. Each edge owns a run
/// of slots in one arena, its spans and then spare room, and a list
/// changes only at its right end: a `Down` or a horizon extension
/// rewrites the last span in place, and an `Up` appends into the room. A
/// full run moves to the arena's end with twice the room (four slots for
/// a first span), or grows in place if it already ends the arena. Once
/// the slots that moves leave dead outnumber the spans, the arena
/// compacts itself. A clone is the copy a write under a snapshot pays:
/// one allocation, each run's spans and one spare slot per non-empty run.
#[derive(Debug)]
pub(crate) struct SpanArena<T> {
    slots: Vec<(T, T)>,
    runs: Vec<Run>,
}

/// One edge's run: `len` spans from `offset`, in `room` slots. The
/// fields are narrow to keep a chunk copy small; [`narrow`] checks each.
#[derive(Debug, Clone, Copy, Default)]
struct Run {
    offset: u32,
    len: u32,
    room: u32,
}

impl Run {
    /// The slots holding the run's spans.
    fn spans(self) -> Range<usize> {
        self.offset as usize..self.offset as usize + self.len as usize
    }
}

/// A slot count as a run field: an arena never nears 2^32 slots.
fn narrow(n: usize) -> u32 {
    u32::try_from(n).expect("a span arena holds fewer than 2^32 slots")
}

impl<T: Time> SpanArena<T> {
    /// Edge `j`'s spans, sorted and disjoint.
    pub(crate) fn spans(&self, j: usize) -> &[(T, T)] {
        &self.slots[self.runs[j].spans()]
    }

    /// Appends a span at the right end of edge `j`'s list, preserving
    /// normalization: an empty span is dropped, a span starting at or
    /// before the current last end is merged into it (streaming
    /// reopenings land exactly at the previous close). Panics on a start
    /// before the last span's, which the stream layer rejects typed first.
    pub(crate) fn append_span(&mut self, j: usize, start: T, end: T) {
        if start >= end {
            return;
        }
        if let Some((last_start, last_end)) = self.spans(j).last() {
            assert!(
                start >= *last_start,
                "append_span out of order: span starts before the current last span"
            );
            if start <= *last_end {
                if end > *last_end {
                    self.set_last_end(j, end);
                }
                return;
            }
        }
        let run = &mut self.runs[j];
        if run.len < run.room {
            self.slots[run.spans().end] = (start, end);
            run.len += 1;
            return;
        }
        if run.offset as usize + run.room as usize != self.slots.len() {
            let kept = run.spans();
            run.offset = narrow(self.slots.len());
            self.slots.extend_from_within(kept);
        }
        run.room = narrow((2 * run.room as usize).max(4));
        run.len += 1;
        self.slots
            .resize(run.spans().start + run.room as usize, (start, end));
        let sum = |(owned, live), run: &Run| (owned + run.room as usize, live + run.len as usize);
        let (owned, live) = self.runs.iter().fold((0, 0), sum);
        if self.slots.len() - owned > live {
            *self = self.compacted(|run| run.room as usize);
        }
    }

    /// Truncates edge `j`'s last span to end at `end`, dropping it if
    /// that empties it: a `Down` rewriting the provisional close. Panics
    /// if the list is empty or `end` exceeds the last end.
    pub(crate) fn truncate_last_span(&mut self, j: usize, end: &T) {
        let (start, last_end) = self.spans(j).last().expect("truncate on an empty set");
        assert!(
            *end <= *last_end,
            "truncate_last_span would extend the span"
        );
        if *end <= *start {
            self.runs[j].len -= 1;
        } else {
            self.set_last_end(j, end.clone());
        }
    }

    /// Extends edge `j`'s last span to end at `end`: a horizon extension
    /// moving an open edge's provisional close. Panics if the list is
    /// empty or `end` precedes the last end.
    pub(crate) fn extend_last_span(&mut self, j: usize, end: &T) {
        let (_, last_end) = self.spans(j).last().expect("extend on an empty set");
        assert!(*end >= *last_end, "extend_last_span would shrink the span");
        self.set_last_end(j, end.clone());
    }

    /// Moves edge `j`'s last span end to `end`; the list is not empty.
    fn set_last_end(&mut self, j: usize, end: T) {
        self.slots[self.runs[j].spans().end - 1].1 = end;
    }
}

impl<T: Clone> SpanArena<T> {
    /// A copy with no dead slots: the runs in edge order, each with its
    /// spans and `room(run)` slots in all, an empty run with none. Its
    /// capacity rounds up to 32 slots, so the blocks that dropped
    /// snapshots free fit the next copies of chunks that grew a little.
    fn compacted(&self, room: impl Fn(&Run) -> usize) -> Self {
        let room = |run: &Run| if run.len == 0 { 0 } else { room(run) };
        let capacity = self.runs.iter().map(room).sum::<usize>();
        let mut slots = Vec::with_capacity(capacity.next_multiple_of(32));
        let runs = self.runs.iter().map(|run| {
            let offset = slots.len();
            let spans = &self.slots[run.spans()];
            if let Some(last) = spans.last() {
                slots.extend_from_slice(spans);
                slots.extend(std::iter::repeat_n(last, room(run) - spans.len()).cloned());
            }
            let (offset, room) = (narrow(offset), narrow(slots.len() - offset));
            Run {
                offset,
                room,
                ..*run
            }
        });
        let runs = runs.collect();
        SpanArena { slots, runs }
    }
}

impl<T: Clone> Clone for SpanArena<T> {
    fn clone(&self) -> Self {
        self.compacted(|run| run.len as usize + 1)
    }
}

/// An edge appended to a presence chunk has no spans yet.
impl<T: Clone> Chunk for SpanArena<T> {
    type Item = ();
    fn with_capacity(n: usize) -> Self {
        let (slots, runs) = (Vec::new(), Vec::with_capacity(n));
        SpanArena { slots, runs }
    }
    fn len(&self) -> usize {
        self.runs.len()
    }
    fn push(&mut self, (): ()) {
        self.runs.push(Run::default());
    }
}

/// A borrowed, copyable view of a normalized span list: what every
/// [`crate::TemporalIndex`] hands the query engine for an edge's
/// presence, whether the spans live in an [`IntervalSet`], a live
/// index's span arena, or a `.tvgi` file's decoded span arena. Every
/// search primitive the journey engine needs lives here once.
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
    use std::sync::Arc;

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

    /// Slots no run owns.
    fn dead(s: &SpanArena<u64>) -> usize {
        s.slots.len() - s.runs.iter().map(|run| run.room as usize).sum::<usize>()
    }

    /// Spans the runs hold.
    fn live(s: &SpanArena<u64>) -> usize {
        s.runs.iter().map(|run| run.len as usize).sum()
    }

    /// A two-edge arena whose edge 0 holds `spans`, appended in order.
    fn arena(spans: &[(u64, u64)]) -> SpanArena<u64> {
        let mut a = SpanArena::with_capacity(2);
        a.push(());
        a.push(());
        for &(start, end) in spans {
            a.append_span(0, start, end);
        }
        a
    }

    #[test]
    fn append_span_grows_at_the_right_edge() {
        let mut s = arena(&[]);
        // Span-less edges own no slots.
        assert!(s.slots.is_empty());
        s.append_span(0, 2, 5);
        s.append_span(0, 5, 5); // empty: dropped
        assert_eq!(s.spans(0), &[(2, 5)]);
        s.append_span(0, 5, 7); // adjacent: merged
        assert_eq!(s.spans(0), &[(2, 7)]);
        s.append_span(0, 9, 12); // gap: new span
        assert_eq!(s.spans(0), &[(2, 7), (9, 12)]);
        s.append_span(0, 10, 11); // contained: absorbed
        assert_eq!(s.spans(0), &[(2, 7), (9, 12)]);
        assert!(s.spans(1).is_empty());
    }

    #[test]
    fn truncate_and_extend_rewrite_the_open_edge() {
        let mut s = arena(&[(1, 4), (6, 20)]);
        s.truncate_last_span(0, &9);
        assert_eq!(s.spans(0), &[(1, 4), (6, 9)]);
        s.extend_last_span(0, &15);
        assert_eq!(s.spans(0), &[(1, 4), (6, 15)]);
        // Truncating to the start drops the span entirely.
        s.truncate_last_span(0, &6);
        assert_eq!(s.spans(0), &[(1, 4)]);
        // Room freed by the drop is reused in place.
        let slots = s.slots.len();
        s.append_span(0, 8, 10);
        assert_eq!(s.spans(0), &[(1, 4), (8, 10)]);
        assert_eq!(s.slots.len(), slots);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn append_span_rejects_out_of_order() {
        let mut s = arena(&[(5, 9)]);
        s.append_span(0, 2, 3);
    }

    #[test]
    #[should_panic(expected = "would extend")]
    fn truncate_never_extends() {
        let mut s = arena(&[(1, 4)]);
        s.truncate_last_span(0, &9);
    }

    #[test]
    fn pop_and_truncate_leave_a_sharing_snapshot_intact() {
        // A column writes a chunk a snapshot shares through
        // `Arc::make_mut`, so the write lands in a copy.
        let snap = Arc::new(arena(&[(1, 4), (6, 20)]));
        let mut s = Arc::clone(&snap);
        Arc::make_mut(&mut s).truncate_last_span(0, &6);
        assert!(!Arc::ptr_eq(&s, &snap));
        assert_eq!(s.spans(0), &[(1, 4)]);
        Arc::make_mut(&mut s).truncate_last_span(0, &2);
        assert_eq!(s.spans(0), &[(1, 2)]);
        assert_eq!(snap.spans(0), &[(1, 4), (6, 20)]);
        // An append after a pop on a shared chunk copies too.
        let mut t = Arc::clone(&snap);
        Arc::make_mut(&mut t).truncate_last_span(0, &6);
        Arc::make_mut(&mut t).append_span(0, 7, 9);
        assert_eq!(t.spans(0), &[(1, 4), (7, 9)]);
        assert_eq!(snap.spans(0), &[(1, 4), (6, 20)]);
    }

    #[test]
    fn extend_on_a_shared_list_copies_it() {
        let mut s = arena(&[(1, 2), (3, 4), (6, 20)]);
        s.truncate_last_span(0, &6); // pops a span, leaving room
        s.append_span(1, 7, 9);
        s.extend_last_span(1, &30);
        let snap = Arc::new(s);
        let mut s = Arc::clone(&snap);
        Arc::make_mut(&mut s).extend_last_span(1, &40);
        assert_eq!(s.spans(0), &[(1, 2), (3, 4)]);
        assert_eq!(s.spans(1), &[(7, 40)]);
        assert_eq!(snap.spans(1), &[(7, 30)]);
        // The copy holds each run's spans and one spare slot after every
        // non-empty run, in edge order, with no dead slots.
        assert_eq!(s.slots.len(), 2 + 1 + 1 + 1);
        assert_eq!(dead(&s), 0);
        assert_eq!((s.runs[0].offset, s.runs[1].offset), (0, 3));
    }

    #[test]
    fn unshared_appends_with_room_stay_in_place() {
        let mut s = arena(&[]);
        // An edge's first span takes four slots.
        s.append_span(1, 0, 1);
        s.append_span(0, 1, 2);
        assert_eq!(
            (s.runs[1].offset, s.runs[1].room, s.runs[0].offset),
            (0, 4, 4)
        );
        // Appends into room stay where they are.
        for t in 1..4 {
            s.append_span(1, 2 * t, 2 * t + 1);
        }
        assert_eq!((s.runs[1].offset, s.slots.len()), (0, 8));
        // A full run moves to the arena's end with twice the room...
        s.append_span(1, 8, 9);
        let moved = (s.runs[1].offset, s.runs[1].room, dead(&s), s.slots.len());
        assert_eq!(moved, (8, 8, 4, 16));
        // ...and one that already ends the arena grows in place.
        for t in 5..9 {
            s.append_span(1, 2 * t, 2 * t + 1);
        }
        let grown = (s.runs[1].offset, s.runs[1].room, dead(&s), s.slots.len());
        assert_eq!(grown, (8, 16, 4, 24));
        let spans: Vec<(u64, u64)> = (0..9).map(|t| (2 * t, 2 * t + 1)).collect();
        assert_eq!(s.spans(1), spans);
        assert_eq!(s.spans(0), &[(1, 2)]);
    }

    #[test]
    fn interleaved_runs_compact_once_dead_slots_outnumber_live_ones() {
        // Two edges taking turns move each other's runs to the end; a
        // snapshot copy now and then leaves one spare slot per run.
        let mut s = arena(&[]);
        let mut expect: [Vec<(u64, u64)>; 2] = Default::default();
        let mut compactions = 0;
        for t in 0..200u64 {
            let j = (t % 3 % 2) as usize;
            let before = dead(&s);
            s.append_span(j, 2 * t, 2 * t + 1);
            expect[j].push((2 * t, 2 * t + 1));
            compactions += usize::from(before > 0 && dead(&s) == 0);
            if t % 37 == 0 {
                s = s.clone();
            }
            assert!(dead(&s) <= live(&s), "t={t}: more dead slots than spans");
            assert_eq!(s.spans(0), expect[0], "t={t}");
            assert_eq!(s.spans(1), expect[1], "t={t}");
        }
        assert!(compactions > 0, "the arena compacted itself");
    }

    #[test]
    fn point_and_up_to() {
        assert_eq!(IntervalSet::point(5u64).spans(), &[(5, 6)]);
        assert_eq!(IntervalSet::up_to(3u64).spans(), &[(0, 3)]);
        assert!(IntervalSet::up_to(0u64).view().is_empty());
    }
}
