//! Property-based tests for `Nat` arithmetic, cross-checked against `u128`
//! and against algebraic laws that hold beyond machine range.
//!
//! Runs on `tvg-testkit`'s deterministic harness: fixed seeds derived
//! from each property's name, fixed case counts, identical output on
//! every run.

use rand::Rng;
use tvg_bigint::Nat;
use tvg_testkit::gen::u128_any;

fn nat(v: u128) -> Nat {
    Nat::from(v)
}

#[test]
fn add_matches_u128() {
    tvg_testkit::check("add_matches_u128", |rng, _| {
        let (a, b) = (rng.gen::<u64>(), rng.gen::<u64>());
        assert_eq!(nat(a as u128) + nat(b as u128), nat(a as u128 + b as u128));
    });
}

#[test]
fn mul_matches_u128() {
    tvg_testkit::check("mul_matches_u128", |rng, _| {
        let (a, b) = (rng.gen::<u64>(), rng.gen::<u64>());
        assert_eq!(nat(a as u128) * nat(b as u128), nat(a as u128 * b as u128));
    });
}

#[test]
fn sub_matches_u128() {
    tvg_testkit::check("sub_matches_u128", |rng, _| {
        let (a, b) = (u128_any(rng), u128_any(rng));
        let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
        assert_eq!(nat(hi) - nat(lo), nat(hi - lo));
        if hi != lo {
            assert_eq!(nat(lo).checked_sub(&nat(hi)), None);
        }
    });
}

#[test]
fn div_rem_matches_u128() {
    tvg_testkit::check("div_rem_matches_u128", |rng, _| {
        let a = u128_any(rng);
        let b = u128_any(rng).max(1);
        let (q, r) = nat(a).div_rem(&nat(b));
        assert_eq!(q, nat(a / b));
        assert_eq!(r, nat(a % b));
    });
}

#[test]
fn add_commutes_beyond_machine_range() {
    tvg_testkit::check("add_commutes_beyond_machine_range", |rng, _| {
        let x = nat(u128_any(rng)).shl_bits(rng.gen_range(0..200));
        let y = nat(u128_any(rng));
        assert_eq!(&x + &y, &y + &x);
    });
}

#[test]
fn mul_distributes_over_add() {
    tvg_testkit::check("mul_distributes_over_add", |rng, _| {
        let a = nat(rng.gen::<u64>() as u128).shl_bits(rng.gen_range(0..100));
        let b = nat(rng.gen::<u64>() as u128);
        let c = nat(rng.gen::<u64>() as u128);
        assert_eq!(&a * (&b + &c), &a * &b + &a * &c);
    });
}

#[test]
fn div_rem_is_inverse_of_mul_add() {
    tvg_testkit::check("div_rem_is_inverse_of_mul_add", |rng, _| {
        let a = nat(u128_any(rng)).shl_bits(rng.gen_range(0..150));
        let d = nat(u128_any(rng).max(1));
        let (q, r) = a.div_rem(&d);
        assert!(r < d);
        assert_eq!(q * d + r, a);
    });
}

#[test]
fn decimal_roundtrip() {
    tvg_testkit::check("decimal_roundtrip", |rng, _| {
        let n = nat(u128_any(rng)).shl_bits(rng.gen_range(0..150));
        let parsed: Nat = n.to_string().parse().expect("display output must parse");
        assert_eq!(parsed, n);
    });
}

#[test]
fn ordering_is_total_and_consistent() {
    tvg_testkit::check("ordering_is_total_and_consistent", |rng, _| {
        let (a, b) = (u128_any(rng), u128_any(rng));
        assert_eq!(nat(a).cmp(&nat(b)), a.cmp(&b));
    });
}

#[test]
fn shifts_invert() {
    tvg_testkit::check("shifts_invert", |rng, _| {
        let n = nat(u128_any(rng));
        let s = rng.gen_range(0..300);
        assert_eq!(n.shl_bits(s).shr_bits(s), n);
    });
}

#[test]
fn pow_splits_additively() {
    tvg_testkit::check("pow_splits_additively", |rng, _| {
        let b = Nat::from(rng.gen_range(2u64..50));
        let (e1, e2) = (rng.gen_range(0u32..20), rng.gen_range(0u32..20));
        assert_eq!(b.pow(e1) * b.pow(e2), b.pow(e1 + e2));
    });
}

#[test]
fn decompose_pq_recovers_exponents() {
    tvg_testkit::check("decompose_pq_recovers_exponents", |rng, _| {
        // Consecutive bases are coprime, so the decomposition is unique.
        let p = rng.gen_range(2u64..100);
        let (np, nq) = (Nat::from(p), Nat::from(p + 1));
        let (a, b) = (rng.gen_range(0u32..30), rng.gen_range(0u32..30));
        let n = np.pow(a) * nq.pow(b);
        assert_eq!(n.decompose_pq(&np, &nq), Some((a, b)));
        // A cofactor coprime to both bases is left over and rejected.
        let stray = Nat::from(p * (p + 1) + 1);
        assert_eq!((n * stray).decompose_pq(&np, &nq), None);
    });
}

#[test]
fn mod_pow_matches_naive() {
    tvg_testkit::check("mod_pow_matches_naive", |rng, _| {
        let b = rng.gen_range(0u64..1000);
        let e = rng.gen_range(0u32..64);
        let m = rng.gen_range(1u64..1000);
        let expected = {
            let mut acc: u128 = 1;
            for _ in 0..e {
                acc = acc * (b as u128) % (m as u128);
            }
            acc % m as u128
        };
        let got = Nat::from(b).mod_pow(&Nat::from(u64::from(e)), &Nat::from(m));
        assert_eq!(got, nat(expected));
    });
}

#[test]
fn primality_matches_trial_division() {
    tvg_testkit::check("primality_matches_trial_division", |rng, _| {
        let n = rng.gen_range(0u64..20_000);
        let trial = n >= 2 && (2..n).take_while(|d| d * d <= n).all(|d| n % d != 0);
        assert_eq!(tvg_bigint::is_prime_u64(n), trial);
    });
}
