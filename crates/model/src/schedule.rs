//! Presence and latency schedules: the functions `ρ` and `ζ` of a TVG.
//!
//! A time-varying graph `G = (V, E, T, ρ, ζ)` attaches to every edge a
//! *presence function* `ρ(e, ·) : T → {0,1}` and a *latency function*
//! `ζ(e, ·) : T → T`. This module represents both as small ASTs rather
//! than bare closures:
//!
//! * the paper's Table 1 is expressible structurally (`After`, `At`,
//!   [`Presence::PqPower`] for `t = pⁱqⁱ⁻¹`, affine latencies `(p−1)t`);
//! * Theorem 2.3's time dilation becomes a *syntactic* wrapper
//!   ([`Presence::dilate`] / [`Latency::dilate`]) with a testable
//!   contract;
//! * the Theorem 2.2 compiler can pattern-match on periodic structure;
//! * and [`Presence::Custom`] keeps the full computable generality that
//!   Theorem 2.1 requires (the environment may run a Turing machine).
//!
//! Arithmetic that can overflow the time representation is checked:
//! a latency whose value would overflow reports `None`, which callers
//! treat as "edge unusable at this time".

use crate::interval::IntervalSet;
use crate::Time;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;
use tvg_bigint::Nat;

/// A presence function `ρ(e, ·)` in AST form.
#[derive(Clone)]
pub enum Presence<T> {
    /// Present at every instant.
    Always,
    /// Never present.
    Never,
    /// Present only at exactly the given instant.
    At(T),
    /// Present at all instants strictly greater than the given one.
    After(T),
    /// Present at all instants strictly smaller than the given one.
    Before(T),
    /// Present on the inclusive window `[from, until]`.
    Window {
        /// First instant of availability.
        from: T,
        /// Last instant of availability.
        until: T,
    },
    /// Present at exactly the instants in the set (trace-driven TVGs).
    /// Cloning shares the set, so the two orientations of a contact
    /// hold one allocation between them.
    FiniteSet(InstantSet<T>),
    /// Present iff `t mod period ∈ phases` — the recurrent/periodic class.
    Periodic {
        /// Period length (must be nonzero).
        period: u64,
        /// Phases within `0..period` at which the edge is present.
        phases: BTreeSet<u64>,
    },
    /// Present iff `t = pⁱ·qⁱ⁻¹` for some `i > 1` — the Table-1 predicate
    /// scheduling edge `e₄` of the paper's Figure 1.
    PqPower {
        /// First prime of the encoding.
        p: u64,
        /// Second prime of the encoding.
        q: u64,
    },
    /// Logical negation.
    Not(Box<Presence<T>>),
    /// Conjunction.
    And(Box<Presence<T>>, Box<Presence<T>>),
    /// Disjunction.
    Or(Box<Presence<T>>, Box<Presence<T>>),
    /// Time dilation by an integer factor (Theorem 2.3): present iff
    /// `factor | t` and the inner schedule is present at `t / factor`.
    Dilated {
        /// The dilation factor (must be nonzero).
        factor: u64,
        /// The undilated schedule.
        inner: Box<Presence<T>>,
    },
    /// An arbitrary computable predicate — the full generality of the
    /// paper's environment (Theorem 2.1 schedules run deciders here).
    Custom(Arc<dyn Fn(&T) -> bool + Send + Sync>),
}

impl<T: Time> Presence<T> {
    /// Evaluates `ρ` at instant `t`.
    ///
    /// ```
    /// use tvg_model::Presence;
    /// let rho = Presence::Periodic { period: 4, phases: [0u64, 1].into() };
    /// assert!(rho.is_present(&4u64));
    /// assert!(!rho.is_present(&6u64));
    /// ```
    #[must_use]
    pub fn is_present(&self, t: &T) -> bool {
        match self {
            Presence::Always => true,
            Presence::Never => false,
            Presence::At(c) => t == c,
            Presence::After(c) => t > c,
            Presence::Before(c) => t < c,
            Presence::Window { from, until } => t >= from && t <= until,
            Presence::FiniteSet(set) => set.as_slice().binary_search(t).is_ok(),
            Presence::Periodic { period, phases } => phases.contains(&t.rem_u64(*period)),
            Presence::PqPower { p, q } => pq_power_index(t, *p, *q).is_some(),
            Presence::Not(inner) => !inner.is_present(t),
            Presence::And(a, b) => a.is_present(t) && b.is_present(t),
            Presence::Or(a, b) => a.is_present(t) || b.is_present(t),
            Presence::Dilated { factor, inner } => {
                let (quot, rem) = t.div_rem_u64(*factor);
                rem == 0 && inner.is_present(&quot)
            }
            Presence::Custom(f) => f(t),
        }
    }

    /// Compiles the schedule into its present-instant [`IntervalSet`]
    /// over the inclusive horizon `[0, horizon]` — the entry point of the
    /// compiled query path ([`crate::TvgIndex`]).
    ///
    /// Structural variants compile without evaluating the predicate
    /// (`Periodic` emits one run per phase block, boolean combinators
    /// become interval algebra, `Dilated` maps the inner instants onto
    /// multiples); [`Presence::Custom`] falls back to an exact linear
    /// scan of `[0, horizon]`, so compilation is never wrong, only
    /// sometimes as slow as the closure it replaces.
    ///
    /// The result agrees with [`Presence::is_present`] on every `t <=
    /// horizon`; instants beyond the horizon are absent from the set.
    /// Arithmetic that would overflow the representation is treated as
    /// "beyond the horizon", matching the checked-latency convention.
    /// One consequence: the very top of a bounded time domain (e.g.
    /// `u64::MAX` itself) has no representable half-open span end, so a
    /// horizon there compiles the domain's *predecessor* window instead
    /// of wrapping — sentinel "unbounded" horizons stay safe.
    #[must_use]
    pub fn intervals(&self, horizon: &T) -> IntervalSet<T> {
        // Exclusive end of the compiled window, with the top-of-domain
        // horizon clamped rather than overflowed.
        let (horizon_eff, end) = match horizon.checked_add(&T::one()) {
            Some(end) => (horizon.clone(), end),
            None => (
                horizon
                    .checked_sub(&T::one())
                    .expect("a maximal time is nonzero"),
                horizon.clone(),
            ),
        };
        let horizon = &horizon_eff;
        match self {
            Presence::Always => IntervalSet::up_to(end),
            Presence::Never => IntervalSet::empty(),
            Presence::At(c) => {
                if c <= horizon {
                    IntervalSet::point(c.clone())
                } else {
                    IntervalSet::empty()
                }
            }
            Presence::After(c) => {
                if c < horizon {
                    IntervalSet::from_spans(vec![(c.succ(), end)])
                } else {
                    IntervalSet::empty()
                }
            }
            Presence::Before(c) => IntervalSet::up_to(c.clone().min(end)),
            Presence::Window { from, until } => {
                if from > until || from > horizon {
                    IntervalSet::empty()
                } else {
                    // Clamp before succ: `until` may be the largest
                    // representable instant (succ would overflow).
                    let span_end = if until >= horizon { end } else { until.succ() };
                    IntervalSet::from_spans(vec![(from.clone(), span_end)])
                }
            }
            Presence::FiniteSet(set) => IntervalSet::from_ascending(
                set.as_slice().iter().take_while(|t| *t <= horizon).cloned(),
            ),
            Presence::Periodic { period, phases } => {
                periodic_intervals(*period, phases, horizon, &end)
            }
            Presence::PqPower { p, q } => pq_power_intervals(*p, *q, horizon),
            Presence::Not(inner) => inner.intervals(horizon).complement_within(&end),
            Presence::And(a, b) => a.intervals(horizon).intersect(&b.intervals(horizon)),
            Presence::Or(a, b) => a.intervals(horizon).union(&b.intervals(horizon)),
            Presence::Dilated { factor, inner } => {
                let (inner_horizon, _) = horizon.div_rem_u64(*factor);
                let compiled = inner.intervals(&inner_horizon);
                IntervalSet::from_ascending(
                    compiled
                        .view()
                        .instants_within(&T::zero(), &inner_horizon)
                        .map_while(|t| t.checked_mul_u64(*factor)),
                )
            }
            Presence::Custom(f) => scan_intervals(|t| f(t), horizon, &end),
        }
    }

    /// Wraps the schedule in a time dilation by `factor` (Theorem 2.3).
    ///
    /// The dilated schedule is present exactly at `{factor · t : ρ(t)=1}`.
    ///
    /// # Panics
    ///
    /// Panics if `factor == 0`.
    #[must_use]
    pub fn dilate(self, factor: u64) -> Presence<T> {
        assert!(factor != 0, "dilation factor must be nonzero");
        if factor == 1 {
            return self;
        }
        Presence::Dilated {
            factor,
            inner: Box::new(self),
        }
    }

    /// Convenience: a custom presence from a closure.
    pub fn from_fn(f: impl Fn(&T) -> bool + Send + Sync + 'static) -> Presence<T> {
        Presence::Custom(Arc::new(f))
    }
}

/// The instants of a trace-driven presence ([`Presence::FiniteSet`]):
/// sorted, deduplicated, and held in one reference-counted slice, so a
/// clone shares the allocation instead of copying it.
///
/// The only constructor is [`FromIterator`], which sorts and
/// deduplicates, so the order that [`Presence::is_present`]'s binary
/// search relies on always holds.
///
/// ```
/// use tvg_model::InstantSet;
/// let set: InstantSet<u64> = [8, 2, 4, 2].into_iter().collect();
/// assert_eq!(set.as_slice(), &[2, 4, 8]);
/// assert_eq!(format!("{set:?}"), "{2, 4, 8}");
/// ```
#[derive(Clone)]
pub struct InstantSet<T>(Arc<[T]>);

impl<T> InstantSet<T> {
    /// The instants in ascending order.
    #[must_use]
    pub fn as_slice(&self) -> &[T] {
        &self.0
    }
}

/// Whether `a` and `b` are one instant set (the same allocation, not
/// merely equal). Generators push a contact's orientations back to back
/// with one [`InstantSet`], so a pass in edge-id order that tests each
/// edge against the previous one handles each contact once.
pub(crate) fn same_instant_set<T>(a: &Presence<T>, b: &Presence<T>) -> bool {
    matches!((a, b), (Presence::FiniteSet(a), Presence::FiniteSet(b))
        if std::ptr::eq(a.as_slice(), b.as_slice()))
}

impl<T: Ord> FromIterator<T> for InstantSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut instants: Vec<T> = iter.into_iter().collect();
        instants.sort_unstable();
        instants.dedup();
        InstantSet(instants.into())
    }
}

impl<T: fmt::Debug> fmt::Debug for InstantSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.0.iter()).finish()
    }
}

impl<T: fmt::Debug> fmt::Debug for Presence<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Presence::Always => write!(f, "Always"),
            Presence::Never => write!(f, "Never"),
            Presence::At(t) => write!(f, "At({t:?})"),
            Presence::After(t) => write!(f, "After({t:?})"),
            Presence::Before(t) => write!(f, "Before({t:?})"),
            Presence::Window { from, until } => write!(f, "Window({from:?}..={until:?})"),
            Presence::FiniteSet(s) => write!(f, "FiniteSet({s:?})"),
            Presence::Periodic { period, phases } => {
                write!(f, "Periodic(mod {period} in {phases:?})")
            }
            Presence::PqPower { p, q } => write!(f, "PqPower(t = {p}^i * {q}^(i-1), i > 1)"),
            Presence::Not(x) => write!(f, "Not({x:?})"),
            Presence::And(a, b) => write!(f, "And({a:?}, {b:?})"),
            Presence::Or(a, b) => write!(f, "Or({a:?}, {b:?})"),
            Presence::Dilated { factor, inner } => write!(f, "Dilated(x{factor}, {inner:?})"),
            Presence::Custom(_) => write!(f, "Custom(<fn>)"),
        }
    }
}

/// Compiles `t mod period ∈ phases` over `[0, horizon]`: one span per
/// run of consecutive phases per period block, merged across block
/// boundaries by normalization.
fn periodic_intervals<T: Time>(
    period: u64,
    phases: &BTreeSet<u64>,
    horizon: &T,
    end: &T,
) -> IntervalSet<T> {
    assert!(period != 0, "time modulus must be nonzero");
    // Maximal runs [a, b) of consecutive phases within 0..period.
    let mut runs: Vec<(u64, u64)> = Vec::new();
    // Phases ≥ period can never match `t mod period`; skip them so the
    // compiled set agrees with `is_present` even on such inputs.
    for &ph in phases.iter().filter(|&&ph| ph < period) {
        match runs.last_mut() {
            Some((_, b)) if *b == ph => *b = ph + 1,
            _ => runs.push((ph, ph + 1)),
        }
    }
    let mut spans = Vec::new();
    let mut block = T::zero();
    'blocks: loop {
        for (a, b) in &runs {
            let Some(start) = block.checked_add(&T::from_u64(*a)) else {
                break 'blocks;
            };
            if start > *horizon {
                break;
            }
            let span_end = match block.checked_add(&T::from_u64(*b)) {
                Some(e) => e.min(end.clone()),
                None => end.clone(),
            };
            spans.push((start, span_end));
        }
        match block.checked_add(&T::from_u64(period)) {
            Some(next) if next <= *horizon => block = next,
            _ => break,
        }
    }
    IntervalSet::from_spans(spans)
}

/// Compiles `t = pⁱ·qⁱ⁻¹ (i > 1)` over `[0, horizon]` by enumerating the
/// (geometrically growing) witnesses directly.
fn pq_power_intervals<T: Time>(p: u64, q: u64, horizon: &T) -> IntervalSet<T> {
    if p.saturating_mul(q) <= 1 {
        // Degenerate parameters (p·q ≤ 1): the witness sequence does not
        // grow, so enumerate by exact scan instead.
        let end = horizon.succ();
        return scan_intervals(|t| pq_power_index(t, p, q).is_some(), horizon, &end);
    }
    // i = 2: t = p²·q.
    let first = T::from_u64(p)
        .checked_mul_u64(p)
        .and_then(|v| v.checked_mul_u64(q));
    IntervalSet::from_ascending(
        std::iter::successors(first, |v| v.checked_mul_u64(p)?.checked_mul_u64(q))
            .take_while(|v| v <= horizon),
    )
}

/// Exact linear-scan compilation for opaque predicates: walks
/// `[0, horizon]` once, emitting one span per maximal run of presence.
fn scan_intervals<T: Time>(pred: impl Fn(&T) -> bool, horizon: &T, end: &T) -> IntervalSet<T> {
    let mut spans = Vec::new();
    let mut run_start: Option<T> = None;
    let mut t = T::zero();
    loop {
        if pred(&t) {
            if run_start.is_none() {
                run_start = Some(t.clone());
            }
        } else if let Some(start) = run_start.take() {
            spans.push((start, t.clone()));
        }
        if t == *horizon {
            break;
        }
        t = t.succ();
    }
    if let Some(start) = run_start {
        spans.push((start, end.clone()));
    }
    IntervalSet::from_spans(spans)
}

/// Returns `i` such that `t = pⁱ·qⁱ⁻¹` with `i > 1`, if it exists.
///
/// This is the presence predicate of edge `e₄` in the paper's Table 1,
/// evaluated by prime-power decomposition.
#[must_use]
pub fn pq_power_index<T: Time>(t: &T, p: u64, q: u64) -> Option<u32> {
    // Work in Nat regardless of the time representation: decomposition
    // needs exact division.
    let tn = to_nat(t);
    if tn.is_zero() {
        return None;
    }
    let (alpha, beta) = tn.decompose_pq(&Nat::from(p), &Nat::from(q))?;
    (alpha > 1 && alpha == beta + 1).then_some(alpha)
}

fn to_nat<T: Time>(t: &T) -> Nat {
    // Digits in base 2^32 via repeated division keep this exact for any
    // Time implementation; the common cases (u64, Nat) stay cheap.
    if let Some(v) = t.to_u64() {
        return Nat::from(v);
    }
    let mut digits: Vec<u64> = Vec::new();
    let base = 1u64 << 32;
    let mut cur = t.clone();
    while cur > T::zero() {
        let (q, r) = cur.div_rem_u64(base);
        digits.push(r);
        cur = q;
    }
    let mut out = Nat::zero();
    for &d in digits.iter().rev() {
        out = out * Nat::from(base) + Nat::from(d);
    }
    out
}

/// A latency function `ζ(e, ·)` in AST form.
#[derive(Clone)]
pub enum Latency<T> {
    /// Constant crossing time.
    Const(T),
    /// Affine in the departure time: `ζ(t) = mul · t + add`.
    ///
    /// Table 1's `(p−1)t` is `Affine { mul: p−1, add: 0 }`.
    Affine {
        /// Coefficient on the departure time.
        mul: u64,
        /// Constant term.
        add: T,
    },
    /// Dilated latency (Theorem 2.3): `ζ'(t) = factor · ζ(t / factor)`,
    /// meaningful at instants divisible by `factor` (which is exactly
    /// where the dilated presence allows departures).
    Dilated {
        /// The dilation factor (must be nonzero).
        factor: u64,
        /// The undilated latency.
        inner: Box<Latency<T>>,
    },
    /// An arbitrary computable latency.
    Custom(Arc<dyn Fn(&T) -> T + Send + Sync>),
}

impl<T: Time> Latency<T> {
    /// Evaluates `ζ` at departure instant `t`; `None` if the value
    /// overflows the time representation.
    ///
    /// ```
    /// use tvg_model::Latency;
    /// let zeta = Latency::Affine { mul: 1, add: 0u64 }; // ζ(t) = t, so arrival 2t
    /// assert_eq!(zeta.at(&21u64), Some(21));
    /// ```
    #[must_use]
    pub fn at(&self, t: &T) -> Option<T> {
        match self {
            Latency::Const(c) => Some(c.clone()),
            Latency::Affine { mul, add } => t.checked_mul_u64(*mul)?.checked_add(add),
            Latency::Dilated { factor, inner } => {
                let (quot, _rem) = t.div_rem_u64(*factor);
                inner.at(&quot)?.checked_mul_u64(*factor)
            }
            Latency::Custom(f) => Some(f(t)),
        }
    }

    /// Arrival time of a crossing departing at `t`: `t + ζ(t)`, or `None`
    /// on overflow.
    #[must_use]
    pub fn arrival(&self, t: &T) -> Option<T> {
        t.checked_add(&self.at(t)?)
    }

    /// Whether the *arrival* `t + ζ(t)` is known to be non-decreasing in
    /// the departure `t` — the property that lets a search take only the
    /// earliest departure of an edge instead of trying every one.
    ///
    /// Conservative: `true` only for shapes where monotonicity is a
    /// theorem (`Const`: `t + c`; `Affine`: `(1 + mul)·t + add`).
    /// `Custom` is opaque and `Dilated` can regress between multiples of
    /// the factor (floor division in the wrapper), so both report
    /// `false` and callers must scan the window.
    #[must_use]
    pub fn arrival_is_monotone(&self) -> bool {
        matches!(self, Latency::Const(_) | Latency::Affine { .. })
    }

    /// Wraps the latency in a time dilation by `factor` (Theorem 2.3).
    ///
    /// # Panics
    ///
    /// Panics if `factor == 0`.
    #[must_use]
    pub fn dilate(self, factor: u64) -> Latency<T> {
        assert!(factor != 0, "dilation factor must be nonzero");
        if factor == 1 {
            return self;
        }
        Latency::Dilated {
            factor,
            inner: Box::new(self),
        }
    }

    /// Convenience: a custom latency from a closure.
    pub fn from_fn(f: impl Fn(&T) -> T + Send + Sync + 'static) -> Latency<T> {
        Latency::Custom(Arc::new(f))
    }

    /// The unit latency `ζ ≡ 1` (the default for simulation TVGs).
    #[must_use]
    pub fn unit() -> Latency<T> {
        Latency::Const(T::one())
    }
}

impl<T: fmt::Debug> fmt::Debug for Latency<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Latency::Const(c) => write!(f, "Const({c:?})"),
            Latency::Affine { mul, add } => write!(f, "Affine({mul}·t + {add:?})"),
            Latency::Dilated { factor, inner } => write!(f, "Dilated(x{factor}, {inner:?})"),
            Latency::Custom(_) => write!(f, "Custom(<fn>)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_presence_variants() {
        assert!(Presence::<u64>::Always.is_present(&0));
        assert!(!Presence::<u64>::Never.is_present(&0));
        assert!(Presence::At(5u64).is_present(&5));
        assert!(!Presence::At(5u64).is_present(&6));
        assert!(Presence::After(5u64).is_present(&6));
        assert!(!Presence::After(5u64).is_present(&5));
        assert!(Presence::Before(5u64).is_present(&4));
        assert!(!Presence::Before(5u64).is_present(&5));
        let w = Presence::Window {
            from: 3u64,
            until: 5,
        };
        assert!(w.is_present(&3) && w.is_present(&5));
        assert!(!w.is_present(&2) && !w.is_present(&6));
    }

    #[test]
    fn finite_set_and_boolean_combinators() {
        let s = Presence::FiniteSet([8u64, 2, 4, 2].into_iter().collect());
        assert_eq!(format!("{s:?}"), "FiniteSet({2, 4, 8})");
        assert!(s.is_present(&4));
        assert!(!s.is_present(&3));
        let not = Presence::Not(Box::new(s.clone()));
        assert!(not.is_present(&3));
        let and = Presence::And(Box::new(s.clone()), Box::new(Presence::After(3)));
        assert!(and.is_present(&4));
        assert!(!and.is_present(&2));
        let or = Presence::Or(Box::new(s), Box::new(Presence::At(3)));
        assert!(or.is_present(&3));
        assert!(or.is_present(&2));
        assert!(!or.is_present(&5));
    }

    #[test]
    fn periodic_presence() {
        let p = Presence::Periodic {
            period: 3,
            phases: BTreeSet::from([1u64]),
        };
        for t in 0u64..20 {
            assert_eq!(p.is_present(&t), t % 3 == 1, "t={t}");
        }
    }

    #[test]
    fn pq_power_predicate_matches_definition() {
        let (p, q) = (2u64, 3u64);
        let rho = Presence::PqPower { p, q };
        // Collect all t = 2^i 3^(i-1), i in 2..6: 12, 72, 432, 2592.
        let mut expected = BTreeSet::new();
        for i in 2u32..6 {
            expected.insert(2u64.pow(i) * 3u64.pow(i - 1));
        }
        for t in 0u64..3000 {
            assert_eq!(rho.is_present(&t), expected.contains(&t), "t={t}");
        }
        // i = 1 gives t = p, which must NOT satisfy the predicate.
        assert!(!rho.is_present(&2u64));
    }

    #[test]
    fn pq_power_on_bigint_times() {
        let p = Nat::from(2u64);
        let q = Nat::from(3u64);
        let t = p.pow(40) * q.pow(39);
        assert_eq!(pq_power_index(&t, 2, 3), Some(40));
        assert_eq!(pq_power_index(&(t * Nat::from(5u64)), 2, 3), None);
        assert_eq!(pq_power_index(&Nat::zero(), 2, 3), None);
        assert_eq!(pq_power_index(&Nat::one(), 2, 3), None); // i=0 not allowed
    }

    #[test]
    fn next_present_scans() {
        let p = Presence::Periodic {
            period: 5,
            phases: BTreeSet::from([3u64]),
        };
        let next = |p: &Presence<u64>, from: u64| p.intervals(&12).view().next_at_or_after(&from);
        assert_eq!(next(&p, 0), Some(3));
        assert_eq!(next(&p, 4), Some(8));
        assert_eq!(next(&p, 9), None);
        assert_eq!(next(&Presence::Never, 0), None);
    }

    #[test]
    fn dilation_contract_presence() {
        let inner = Presence::Periodic {
            period: 2,
            phases: BTreeSet::from([1u64]),
        };
        let dilated = inner.clone().dilate(3);
        for t in 0u64..30 {
            let expected = t % 3 == 0 && inner.is_present(&(t / 3));
            assert_eq!(dilated.is_present(&t), expected, "t={t}");
        }
    }

    #[test]
    fn dilation_by_one_is_identity() {
        let p = Presence::At(4u64).dilate(1);
        assert!(matches!(p, Presence::At(4)));
        let l = Latency::Const(2u64).dilate(1);
        assert!(matches!(l, Latency::Const(2)));
    }

    #[test]
    #[should_panic(expected = "dilation factor must be nonzero")]
    fn zero_dilation_panics() {
        let _ = Presence::<u64>::Always.dilate(0);
    }

    #[test]
    fn latency_variants() {
        assert_eq!(Latency::Const(7u64).at(&100), Some(7));
        assert_eq!(Latency::Const(7u64).arrival(&100), Some(107));
        // ζ(t) = (p-1)·t with p=2: arrival doubles the time.
        let zeta = Latency::Affine { mul: 1, add: 0u64 };
        assert_eq!(zeta.arrival(&8), Some(16));
        let zeta5 = Latency::Affine { mul: 4, add: 0u64 };
        assert_eq!(zeta5.arrival(&3), Some(15)); // 3 + 4*3 = 15 = 5*3
        assert_eq!(Latency::<u64>::unit().at(&0), Some(1));
    }

    #[test]
    fn arrival_monotonicity_is_conservative() {
        assert!(Latency::<u64>::Const(3).arrival_is_monotone());
        assert!(Latency::Affine { mul: 2, add: 1u64 }.arrival_is_monotone());
        assert!(!Latency::<u64>::from_fn(|t| 100u64.saturating_sub(*t)).arrival_is_monotone());
        // Dilated regresses between factor multiples (floor division in
        // the wrapper), so it must not claim monotonicity.
        assert!(!Latency::Const(5u64).dilate(4).arrival_is_monotone());
    }

    #[test]
    fn latency_overflow_is_none() {
        let zeta = Latency::Affine { mul: 2, add: 0u64 };
        assert_eq!(zeta.at(&(u64::MAX / 2 + 1)), None);
        assert_eq!(Latency::Const(u64::MAX).arrival(&1), None);
    }

    #[test]
    fn latency_dilation_contract() {
        // inner ζ(t) = 3t (affine), factor 4: ζ'(4t) = 4·(3t) = 12t,
        // arrival' (4t) = 4t + 12t = 4·(t + 3t).
        let inner = Latency::Affine { mul: 3, add: 0u64 };
        let dilated = inner.clone().dilate(4);
        for t in 0u64..50 {
            let inner_arrival = inner.arrival(&t).expect("no overflow");
            assert_eq!(dilated.arrival(&(t * 4)), Some(inner_arrival * 4), "t={t}");
        }
    }

    #[test]
    fn custom_schedules() {
        let rho = Presence::from_fn(|t: &u64| t.is_power_of_two());
        assert!(rho.is_present(&8));
        assert!(!rho.is_present(&9));
        let zeta = Latency::from_fn(|t: &u64| t * t);
        assert_eq!(zeta.at(&5), Some(25));
    }

    #[test]
    fn custom_dilated_composes() {
        // Dilating a custom schedule still works: the wrapper divides time
        // before delegating.
        let rho = Presence::from_fn(|t: &u64| *t == 5).dilate(2);
        assert!(rho.is_present(&10));
        assert!(!rho.is_present(&5));
        assert!(!rho.is_present(&11));
    }

    #[test]
    fn debug_output_is_informative() {
        let rho = Presence::<u64>::PqPower { p: 2, q: 3 };
        assert!(format!("{rho:?}").contains("2^i"));
        let zeta = Latency::Affine { mul: 1, add: 0u64 };
        assert!(format!("{zeta:?}").contains("Affine"));
        assert_eq!(
            format!("{:?}", Presence::<u64>::from_fn(|_| true)),
            "Custom(<fn>)"
        );
    }

    /// Exhaustive agreement between the compiled interval set and the
    /// closure evaluation, on and beyond the horizon.
    fn assert_compiles_exactly(rho: &Presence<u64>, horizon: u64) {
        let set = rho.intervals(&horizon);
        for t in 0..=horizon {
            assert_eq!(
                set.view().contains(&t),
                rho.is_present(&t),
                "{rho:?} at t={t} (horizon {horizon})"
            );
        }
        for t in horizon + 1..horizon + 5 {
            assert!(!set.view().contains(&t), "{rho:?} beyond horizon at t={t}");
        }
    }

    #[test]
    fn intervals_match_closures_structurally() {
        let h = 40u64;
        assert_compiles_exactly(&Presence::Always, h);
        assert_compiles_exactly(&Presence::Never, h);
        assert_compiles_exactly(&Presence::At(7), h);
        assert_compiles_exactly(&Presence::At(41), h);
        assert_compiles_exactly(&Presence::After(10), h);
        assert_compiles_exactly(&Presence::After(40), h);
        assert_compiles_exactly(&Presence::Before(12), h);
        assert_compiles_exactly(&Presence::Window { from: 5, until: 9 }, h);
        assert_compiles_exactly(
            &Presence::Window {
                from: 38,
                until: 90,
            },
            h,
        );
        // Regression: a window ending at the largest representable
        // instant must clamp to the horizon, not overflow on succ.
        assert_compiles_exactly(
            &Presence::Window {
                from: 3,
                until: u64::MAX,
            },
            h,
        );
        assert_compiles_exactly(
            &Presence::FiniteSet([99, 1, 3, 2, 17].into_iter().collect()),
            h,
        );
        assert_compiles_exactly(
            &Presence::Periodic {
                period: 6,
                phases: BTreeSet::from([0, 1, 4]),
            },
            h,
        );
        assert_compiles_exactly(&Presence::PqPower { p: 2, q: 3 }, 3000);
    }

    #[test]
    fn intervals_match_closures_combinators() {
        let h = 50u64;
        let periodic = Presence::Periodic {
            period: 4,
            phases: BTreeSet::from([1, 2]),
        };
        assert_compiles_exactly(&Presence::Not(Box::new(periodic.clone())), h);
        assert_compiles_exactly(
            &Presence::And(Box::new(periodic.clone()), Box::new(Presence::After(13))),
            h,
        );
        assert_compiles_exactly(
            &Presence::Or(Box::new(periodic.clone()), Box::new(Presence::At(3))),
            h,
        );
        assert_compiles_exactly(&periodic.clone().dilate(3), h);
        assert_compiles_exactly(&Presence::from_fn(|t: &u64| t.is_power_of_two()), h);
        assert_compiles_exactly(&Presence::from_fn(|_| true), h);
    }

    #[test]
    fn periodic_intervals_merge_runs_across_blocks() {
        // All phases present: one contiguous span, not horizon/period many.
        let rho = Presence::Periodic {
            period: 3,
            phases: BTreeSet::from([0u64, 1, 2]),
        };
        let set = rho.intervals(&29u64);
        assert_eq!(set.spans().len(), 1);
        assert_eq!(set.spans(), &[(0, 30)]);
        // Out-of-range phases never match `t mod period`.
        let bogus = Presence::Periodic {
            period: 3,
            phases: BTreeSet::from([1u64, 7]),
        };
        assert_compiles_exactly(&bogus, 20);
    }

    #[test]
    fn intervals_at_the_top_of_the_domain_clamp_instead_of_wrapping() {
        // u64::MAX has no representable half-open span end; a sentinel
        // "unbounded" horizon must compile the predecessor window, not
        // wrap to an empty (or panicking) one.
        let always = Presence::<u64>::Always.intervals(&u64::MAX);
        assert_eq!(always.spans(), &[(0, u64::MAX)]);
        assert!(always.view().contains(&(u64::MAX - 1)));
        let window = Presence::Window {
            from: 10u64,
            until: u64::MAX,
        }
        .intervals(&u64::MAX);
        assert_eq!(window.spans(), &[(10, u64::MAX)]);
        let late = Presence::At(u64::MAX - 1).intervals(&u64::MAX);
        assert!(late.view().contains(&(u64::MAX - 1)));
    }

    #[test]
    fn intervals_on_bigint_times() {
        let rho = Presence::PqPower { p: 2, q: 3 };
        let horizon = Nat::from(3000u64);
        let set = rho.intervals(&horizon);
        let expected: Vec<(Nat, Nat)> = [12u64, 72, 432, 2592]
            .iter()
            .map(|&t| (Nat::from(t), Nat::from(t + 1)))
            .collect();
        assert_eq!(set.spans(), &expected[..]);
    }

    #[test]
    fn interval_next_within_matches_scan() {
        let rho = Presence::Periodic {
            period: 5,
            phases: BTreeSet::from([3u64]),
        };
        let set = rho.intervals(&12u64);
        for from in 0..=12u64 {
            let scan = (from..=12).find(|t| rho.is_present(t));
            assert_eq!(set.view().next_at_or_after(&from), scan, "from {from}");
        }
    }

    #[test]
    fn bigint_affine_latency_never_overflows() {
        let zeta = Latency::Affine {
            mul: u64::MAX,
            add: Nat::zero(),
        };
        let t = Nat::from(u64::MAX);
        assert!(zeta.arrival(&t).is_some());
    }
}
