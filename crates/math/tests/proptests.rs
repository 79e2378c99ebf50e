//! Property-based tests for the math substrate.

use heax_math::ntt::{bit_reverse, AutoKernel, NttTable};
use heax_math::packed::{width_for, PackedRows};
use heax_math::poly::{Representation, RnsPoly};
use heax_math::primes::{default_chain_bits, generate_ntt_primes, generate_prime_chain, is_prime};
use heax_math::rns::RnsBasis;
use heax_math::word::{encode_le_words, le_words_eq, Modulus, MulRedConstant};
use proptest::prelude::*;

fn arb_modulus() -> impl Strategy<Value = Modulus> {
    // A spread of real NTT primes of different widths (n = 64 to stay fast).
    prop::sample::select(vec![
        generate_ntt_primes(20, 1, 64).unwrap()[0],
        generate_ntt_primes(30, 1, 64).unwrap()[0],
        generate_ntt_primes(36, 1, 64).unwrap()[0],
        generate_ntt_primes(50, 1, 64).unwrap()[0],
        generate_ntt_primes(60, 1, 64).unwrap()[0],
    ])
    .prop_map(|p| Modulus::new(p).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn barrett_reduce_u64_matches_rem(p in arb_modulus(), x in any::<u64>()) {
        prop_assert_eq!(p.reduce_u64(x), x % p.value());
    }

    #[test]
    fn barrett_reduce_u128_matches_rem(p in arb_modulus(), x in any::<u128>()) {
        // Restrict to the Algorithm 1 input domain [0, (p-1)^2].
        let bound = (p.value() as u128 - 1) * (p.value() as u128 - 1);
        let x = x % (bound + 1);
        prop_assert_eq!(p.reduce_u128(x) as u128, x % p.value() as u128);
    }

    #[test]
    fn mulred_matches_barrett(p in arb_modulus(), x in any::<u64>(), y in any::<u64>()) {
        let x = x % p.value();
        let y = y % p.value();
        let c = MulRedConstant::new(y, &p);
        prop_assert_eq!(c.mul_red(x, &p), p.mul_mod(x, y));
    }

    #[test]
    fn field_laws(p in arb_modulus(), a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let (a, b, c) = (a % p.value(), b % p.value(), c % p.value());
        // Commutativity and associativity of both operations.
        prop_assert_eq!(p.add_mod(a, b), p.add_mod(b, a));
        prop_assert_eq!(p.mul_mod(a, b), p.mul_mod(b, a));
        prop_assert_eq!(p.add_mod(p.add_mod(a, b), c), p.add_mod(a, p.add_mod(b, c)));
        prop_assert_eq!(p.mul_mod(p.mul_mod(a, b), c), p.mul_mod(a, p.mul_mod(b, c)));
        // Distributivity.
        prop_assert_eq!(
            p.mul_mod(a, p.add_mod(b, c)),
            p.add_mod(p.mul_mod(a, b), p.mul_mod(a, c))
        );
        // Inverses.
        prop_assert_eq!(p.add_mod(a, p.neg_mod(a)), 0);
        if a != 0 {
            prop_assert_eq!(p.mul_mod(a, p.inv_mod(a).unwrap()), 1);
        }
        // Halving.
        prop_assert_eq!(p.add_mod(p.div2_mod(a), p.div2_mod(a)), a);
    }

    #[test]
    fn pow_mod_is_homomorphic(p in arb_modulus(), x in any::<u64>(), e1 in 0u64..1000, e2 in 0u64..1000) {
        let x = x % p.value();
        prop_assert_eq!(
            p.pow_mod(x, e1 + e2),
            p.mul_mod(p.pow_mod(x, e1), p.pow_mod(x, e2))
        );
    }

    #[test]
    fn bit_reverse_is_involution(x in 0usize..(1 << 12), bits in 1u32..13) {
        let x = x & ((1 << bits) - 1);
        prop_assert_eq!(bit_reverse(bit_reverse(x, bits), bits), x);
    }
}

/// Whichever kernel family the host selects (eight IFMA lanes, scalar
/// lazy, strict) and the scalar lazy kernels by name must agree with the
/// strict Algorithms 3/4 — bit for bit where the contract is canonical
/// output, modulo `p` for the reduced-on-load form, inside `[0, 4p)`
/// (canonical on the strict family). `src` may hold any `u64` words.
fn assert_kernels_match_strict(table: &NttTable, input: &[u64], src: &[u64]) {
    let n = table.n();
    let p = *table.modulus();
    let tag = format!("n={n} p={} kernel={}", p.value(), table.auto_kernel());

    let mut want_fwd = input.to_vec();
    table.forward(&mut want_fwd);
    let mut want_inv = input.to_vec();
    table.inverse(&mut want_inv);
    let mut want_src: Vec<u64> = src.iter().map(|&x| p.reduce_u64(x)).collect();
    table.forward(&mut want_src);

    let mut a = input.to_vec();
    table.forward_auto(&mut a);
    assert_eq!(a, want_fwd, "forward_auto {tag}");
    let mut a = input.to_vec();
    table.inverse_auto(&mut a);
    assert_eq!(a, want_inv, "inverse_auto {tag}");
    let strict = table.auto_kernel() == AutoKernel::Strict;
    if !strict {
        let mut a = input.to_vec();
        table.forward_lazy(&mut a);
        assert_eq!(a, want_fwd, "forward_lazy {tag}");
        let mut a = input.to_vec();
        table.inverse_lazy(&mut a);
        assert_eq!(a, want_inv, "inverse_lazy {tag}");
    }

    let bound = if strict { p.value() } else { 4 * p.value() };
    let congruent = |got: &[u64], want: &[u64], what: &str| {
        for (g, w) in got.iter().zip(want) {
            assert!(*g < bound, "{what} leaves its domain, {tag}");
            assert_eq!(p.reduce_u64(*g), *w, "{what} {tag}");
        }
    };
    let mut d = vec![0u64; n];
    table.forward_reduced_auto(input, &mut d);
    congruent(&d, &want_fwd, "forward_reduced_auto");
    table.forward_reduced_auto(src, &mut d);
    congruent(&d, &want_src, "forward_reduced_auto(src)");
}

/// `len` words from a xorshift stream, each shifted right by `shift(i)`.
fn words(seed: u64, len: usize, shift: impl Fn(usize) -> u32) -> Vec<u64> {
    let mut state = seed | 1;
    (0..len)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state >> shift(i)
        })
        .collect()
}

fn host_has_lanes() -> bool {
    #[cfg(target_arch = "x86_64")]
    let lanes = std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512ifma")
        && std::arch::is_x86_feature_detected!("avx512vbmi");
    #[cfg(not(target_arch = "x86_64"))]
    let lanes = false;
    lanes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn auto_kernels_match_strict_for_random_primes(
        bits in 30u32..=50,
        log_n in 4u32..=14,
        pick in 0usize..4,
        seed in any::<u64>(),
    ) {
        let n = 1usize << log_n;
        let p = generate_ntt_primes(bits, pick + 1, n).unwrap()[pick];
        let table = NttTable::new(n, Modulus::new(p).unwrap()).unwrap();
        let input: Vec<u64> = words(seed, n, |_| 0).iter().map(|&x| x % p).collect();
        // Source words of every width up to 64 bits.
        let src = words(!seed, n, |i| (i % 36) as u32);
        assert_kernels_match_strict(&table, &input, &src);
    }
}

#[test]
fn auto_kernels_match_strict_on_every_parameter_set_table() {
    for n in [4096usize, 8192, 16384] {
        let chain = generate_prime_chain(default_chain_bits(n).unwrap(), n).unwrap();
        // The special prime is the chain's last entry.
        for (i, &p) in chain.iter().enumerate() {
            let table = NttTable::new(n, Modulus::new(p).unwrap()).unwrap();
            let input: Vec<u64> = words(p, n, |_| 0).iter().map(|&x| x % p).collect();
            // What the key switch feeds it: residues under a sibling prime.
            let sibling = chain[(i + 1) % chain.len()];
            let src: Vec<u64> = words(!p, n, |_| 0).iter().map(|&x| x % sibling).collect();
            assert_kernels_match_strict(&table, &input, &src);
        }
    }
}

#[test]
fn auto_kernel_edge_cases() {
    let lanes_or_scalar = if host_has_lanes() {
        AutoKernel::Lanes8
    } else {
        AutoKernel::ScalarLazy
    };
    println!("NTT `*_auto` kernel family on this host for p < 2^50, n >= 16: {lanes_or_scalar}");
    let n = 64usize;
    let table = |n: usize, p: u64| NttTable::new(n, Modulus::new(p).unwrap()).unwrap();
    // The widest modulus the 52-bit word takes, and the first it does not.
    let below = generate_ntt_primes(50, 1, n).unwrap()[0];
    let at_or_above = (0u64..)
        .map(|j| (1 << 50) + 1 + j * 2 * n as u64)
        .find(|&p| is_prime(p))
        .unwrap();
    let cases = [
        (table(n, below), lanes_or_scalar),
        (table(n, at_or_above), AutoKernel::ScalarLazy),
        (
            table(16, generate_ntt_primes(50, 1, 16).unwrap()[0]),
            lanes_or_scalar,
        ),
        (
            table(8, generate_ntt_primes(50, 1, 8).unwrap()[0]),
            AutoKernel::ScalarLazy,
        ),
        (
            table(n, generate_ntt_primes(61, 1, n).unwrap()[0]),
            AutoKernel::Strict,
        ),
    ];
    for (t, kernel) in &cases {
        assert_eq!(t.auto_kernel(), *kernel, "n={} p={}", t.n(), t.modulus());
        let (n, p) = (t.n(), t.modulus().value());
        // Worst lazy growth: every butterfly operand at p − 1 (on the
        // lanes 4p − 1 must still fit 52 bits).
        let top = vec![p - 1; n];
        let all_ones = vec![u64::MAX; n];
        assert_kernels_match_strict(t, &top, &all_ones);
        // Source words at and beyond the 52-bit word, and one lone wide
        // word among narrow ones.
        let random = words(p, n, |_| 0);
        let input: Vec<u64> = random.iter().map(|&x| x % p).collect();
        let at_word: Vec<u64> = random.iter().map(|&x| x | 1 << 52).collect();
        assert_kernels_match_strict(t, &input, &at_word);
        let mut lone: Vec<u64> = random.iter().map(|&x| x >> 12).collect();
        lone[n - 1] = 1 << 52;
        assert_kernels_match_strict(t, &input, &lone);
        let just_below: Vec<u64> = random.iter().map(|&x| x >> 12 | 1 << 51).collect();
        assert_kernels_match_strict(t, &input, &just_below);
    }
}

/// The element-wise kernels — double-width DyadMult accumulate, word
/// reduction, MS (with and without the permuted addend) and the dyadic
/// product — on whichever path the host dispatches to **and** on the
/// scalar loop by name, against strict `mul_mod` / `add_mod` / `sub_mod`.
/// `xs` holds `rows` rows of `n` arbitrary digit words; everything else is
/// derived from `seed`, or — with `seed = None` — sits at `p − 1`.
fn assert_elementwise_match_strict(
    p: &Modulus,
    n: usize,
    rows: usize,
    xs: &[u64],
    perm: Option<&[u32]>,
    seed: Option<u64>,
) {
    assert_eq!(xs.len(), rows * n);
    let tag = format!("p={} n={n} rows={rows} perm={}", p.value(), perm.is_some());
    let canonical = |salt: u64| -> Vec<u64> {
        match seed {
            Some(seed) => words(seed ^ salt, n, |_| 0)
                .iter()
                .map(|&x| x % p.value())
                .collect(),
            None => vec![p.value() - 1; n],
        }
    };
    let at = |t: usize| perm.map_or(t, |perm| perm[t] as usize);

    // DyadMult accumulate.
    let keys: Vec<(Vec<u64>, Vec<u64>)> = (0..rows as u64)
        .map(|i| (canonical(2 * i + 1), canonical(!(2 * i + 2))))
        .collect();
    let mut want = (vec![0u64; n], vec![0u64; n]);
    for (row, (k0, k1)) in xs.chunks_exact(n).zip(&keys) {
        for t in 0..n {
            let x = p.reduce_u64(row[at(t)]);
            want.0[t] = p.add_mod(want.0[t], p.mul_mod(x, k0[t]));
            want.1[t] = p.add_mod(want.1[t], p.mul_mod(x, k1[t]));
        }
    }
    let packed = pack_rows(
        width_for(p.bits()),
        n,
        keys.iter().flat_map(|(k0, k1)| [k0, k1]),
    );
    let key_rows = || (0..rows).map(|i| (packed.row(2 * i), packed.row(2 * i + 1)));
    // Stale contents must be overwritten, not accumulated.
    let (mut d0, mut d1) = (vec![u64::MAX; n], vec![u64::MAX; n]);
    p.dyad_acc_lazy(xs, perm, key_rows(), &mut d0, &mut d1);
    let (mut s0, mut s1) = (vec![u64::MAX; n], vec![u64::MAX; n]);
    p.dyad_acc_lazy_scalar(xs, perm, key_rows(), &mut s0, &mut s1);
    for (got, want) in [
        (&d0, &want.0),
        (&d1, &want.1),
        (&s0, &want.0),
        (&s1, &want.1),
    ] {
        for (g, w) in got.iter().zip(want) {
            assert!(*g < 4 * p.value(), "accumulate leaves [0,4p), {tag}");
            assert_eq!(p.reduce_u64(*g), *w, "dyad_acc_lazy {tag}");
        }
    }

    // Word reduction, on the first digit row.
    let want_reduced: Vec<u64> = xs[..n].iter().map(|&x| x % p.value()).collect();
    let mut a = xs[..n].to_vec();
    p.reduce_words(&mut a);
    assert_eq!(a, want_reduced, "reduce_words {tag}");

    // MS: the lazy accumulator words as `src`, `r` anywhere in its domain.
    let inv_value = p.inv_mod(0x1234_5677 % p.value()).unwrap();
    let inv = MulRedConstant::new(inv_value, p);
    let span = if p.bits() <= 60 {
        4 * p.value()
    } else {
        p.value()
    };
    let r: Vec<u64> = match seed {
        Some(seed) => words(seed ^ 0x5eed, n, |_| 0)
            .iter()
            .map(|&x| x % span)
            .collect(),
        None => vec![span - 1; n],
    };
    let c0 = canonical(0xc0);
    for (src, what) in [(&d0, "lazy src"), (&xs[..n].to_vec(), "digit-row src")] {
        let want_ms: Vec<u64> = (0..n)
            .map(|t| {
                let diff = p.sub_mod(p.reduce_u64(src[t]), p.reduce_u64(r[t]));
                p.mul_mod(diff, inv_value)
            })
            .collect();
        let want_added: Vec<u64> = (0..n).map(|t| p.add_mod(want_ms[t], c0[at(t)])).collect();
        let identity: Vec<u32> = (0..n as u32).collect();
        let add = Some((&c0[..], perm.unwrap_or(&identity)));
        let mut got = vec![u64::MAX; n];
        p.mod_switch(&inv, src, &r, None, &mut got);
        assert_eq!(got, want_ms, "mod_switch, {what}, {tag}");
        p.mod_switch_scalar(&inv, src, &r, None, &mut got);
        assert_eq!(got, want_ms, "mod_switch_scalar, {what}, {tag}");
        p.mod_switch(&inv, src, &r, add, &mut got);
        assert_eq!(got, want_added, "mod_switch + addend, {what}, {tag}");
        p.mod_switch_scalar(&inv, src, &r, add, &mut got);
        assert_eq!(got, want_added, "mod_switch_scalar + addend, {what}, {tag}");
    }

    // Dyadic product, set then accumulate: the tensor's a₀b₁ + a₁b₀.
    let (a0, b1) = (&xs[..n], canonical(0xb1));
    let (a1, b0) = (canonical(0xa1), canonical(0xb0));
    let want_set: Vec<u64> = (0..n)
        .map(|t| p.mul_mod(p.reduce_u64(a0[t]), b1[t]))
        .collect();
    let want_acc: Vec<u64> = (0..n)
        .map(|t| p.add_mod(want_set[t], p.mul_mod(a1[t], b0[t])))
        .collect();
    let mut got = vec![u64::MAX; n];
    p.dyad_mul(a0, &b1, false, &mut got);
    assert_eq!(got, want_set, "dyad_mul set {tag}");
    p.dyad_mul(&a1, &b0, true, &mut got);
    assert_eq!(got, want_acc, "dyad_mul acc {tag}");
    p.dyad_mul_scalar(a0, &b1, false, &mut got);
    assert_eq!(got, want_set, "dyad_mul_scalar set {tag}");
    p.dyad_mul_scalar(&a1, &b0, true, &mut got);
    assert_eq!(got, want_acc, "dyad_mul_scalar acc {tag}");
}

/// A permutation of `0..n` drawn from `seed` (Fisher–Yates).
fn permutation(seed: u64, n: usize) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for (i, r) in words(seed, n, |_| 0).into_iter().enumerate().skip(1) {
        perm.swap(i, r as usize % (i + 1));
    }
    perm
}

/// `rows` packed at `width` bytes a word, one buffer row each.
fn pack_rows<'a>(width: usize, n: usize, rows: impl Iterator<Item = &'a Vec<u64>>) -> PackedRows {
    let rows: Vec<_> = rows.collect();
    let mut packed = PackedRows::zeroed(width, rows.len(), n);
    for (r, words) in rows.into_iter().enumerate() {
        packed.set_row(r, words);
    }
    packed
}

/// The accumulate over packed key rows — dispatched and on the scalar
/// loop by name — against a plain `u128` sum over the same rows as
/// `u64` words, reduced with `%`: every key width from 5 to 8 bytes (a
/// prime of each width, and a 36-bit prime stored wider than it needs),
/// one row to one past a whole batch so a carried batch runs, the
/// permutation on and off, whole chunks and a tail.
#[test]
fn packed_accumulate_equals_the_u64_reference_at_every_width() {
    let narrow = generate_ntt_primes(36, 1, 64).unwrap()[0];
    for width in 5..=8usize {
        let bits = (8 * width as u32).min(61);
        let own = generate_ntt_primes(bits, 1, 64).unwrap()[0];
        for p in [own, narrow] {
            let p = Modulus::new(p).unwrap();
            assert!(width_for(p.bits()) <= width);
            for n in [64usize, 61] {
                let perm = permutation(width as u64, n);
                for rows in 1..=9usize {
                    let seed = (width * 100 + rows) as u64 ^ p.value();
                    let xs: Vec<u64> = words(seed, rows * n, |_| 0)
                        .iter()
                        .map(|&x| x % (4 * p.value()).min(1 << 52))
                        .collect();
                    let keys: Vec<Vec<u64>> = (0..2 * rows as u64)
                        .map(|r| words(seed ^ ((r + 1) << 32), n, |_| 0))
                        .map(|k| k.iter().map(|&x| x % p.value()).collect())
                        .collect();
                    let packed = pack_rows(width, n, keys.iter());
                    let key_rows = || (0..rows).map(|i| (packed.row(2 * i), packed.row(2 * i + 1)));
                    for perm in [None, Some(&perm[..])] {
                        let at = |t: usize| perm.map_or(t, |perm| perm[t] as usize);
                        let want = |c: usize| -> Vec<u64> {
                            (0..n)
                                .map(|t| {
                                    let sum = (0..rows)
                                        .map(|i| {
                                            xs[i * n + at(t)] as u128 * keys[2 * i + c][t] as u128
                                        })
                                        .sum::<u128>();
                                    (sum % p.value() as u128) as u64
                                })
                                .collect()
                        };
                        let want = [want(0), want(1)];
                        let tag = format!(
                            "width {width} p={} n={n} rows={rows} perm={}",
                            p.value(),
                            perm.is_some()
                        );
                        let (mut d0, mut d1) = (vec![u64::MAX; n], vec![u64::MAX; n]);
                        p.dyad_acc_lazy(&xs, perm, key_rows(), &mut d0, &mut d1);
                        let (mut s0, mut s1) = (vec![u64::MAX; n], vec![u64::MAX; n]);
                        p.dyad_acc_lazy_scalar(&xs, perm, key_rows(), &mut s0, &mut s1);
                        for (got, c) in [(&d0, 0), (&d1, 1), (&s0, 0), (&s1, 1)] {
                            for (t, g) in got.iter().enumerate() {
                                assert!(*g < 4 * p.value(), "[0,4p), {tag}");
                                assert_eq!(g % p.value(), want[c][t], "word {t}, {tag}");
                            }
                        }
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn elementwise_kernels_match_strict_for_random_primes(
        bits in 30u32..=61,
        rows in 1usize..=8,
        // Whole chunks of eight, and lengths that leave a tail.
        n in prop::sample::select(vec![8usize, 64, 61, 100, 7]),
        permuted in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let p = Modulus::new(generate_ntt_primes(bits, 1, 64).unwrap()[0]).unwrap();
        // What the key switch feeds it: lazy digits below 4p (canonical
        // beyond 60 bits, where 4p does not fit a word).
        let span = if bits <= 60 { 4 * p.value() } else { p.value() };
        let xs: Vec<u64> = words(seed, rows * n, |_| 0).iter().map(|&x| x % span).collect();
        let perm = permuted.then(|| permutation(!seed, n));
        assert_elementwise_match_strict(&p, n, rows, &xs, perm.as_deref(), Some(seed));
    }
}

#[test]
fn elementwise_kernel_edge_cases() {
    let n = 72usize;
    let perm = permutation(7, n);
    // The widest modulus the 52-bit word takes is also where the row
    // guard of the lane accumulator binds: rows·(p + 1) < 2^52 holds for
    // four rows and fails for five.
    let below = (1..)
        .map(|j| (1u64 << 50) - j)
        .find(|&p| is_prime(p))
        .unwrap();
    assert!(4 * (below as u128 + 1) < 1 << 52 && 5 * (below as u128 + 1) >= 1 << 52);
    let at_or_above = (1u64 << 50..).find(|&p| is_prime(p)).unwrap();
    let wide = generate_ntt_primes(61, 1, 64).unwrap()[0];
    let narrow = generate_ntt_primes(30, 1, 64).unwrap()[0];
    for p in [below, at_or_above, wide, narrow] {
        let p = Modulus::new(p).unwrap();
        for rows in [1usize, 3, 4, 5, 8, 9, 17] {
            for perm in [None, Some(&perm[..])] {
                // Worst growth: every digit at the top of its lazy domain
                // (then at p − 1, then at the top of the 52-bit word)
                // against key words, `r` and addends at the top of theirs.
                let lazy_top = if p.bits() <= 60 {
                    4 * p.value() - 1
                } else {
                    p.value() - 1
                };
                for top in [lazy_top, p.value() - 1, (1 << 52) - 1] {
                    assert_elementwise_match_strict(&p, n, rows, &vec![top; rows * n], perm, None);
                }
                // Digit words at and beyond the 52-bit word must take the
                // scalar loop, not wrap: everywhere, and one lone wide
                // word among narrow ones (mid-chunk, in the last row).
                let random = words(p.value() ^ rows as u64, rows * n, |_| 0);
                assert_elementwise_match_strict(&p, n, rows, &random, perm, Some(3));
                let at_word: Vec<u64> = random.iter().map(|&x| x >> 12 | 1 << 52).collect();
                assert_elementwise_match_strict(&p, n, rows, &at_word, perm, Some(4));
                let mut lone: Vec<u64> = random.iter().map(|&x| x >> 14).collect();
                lone[(rows - 1) * n + 37] = 1 << 52;
                assert_elementwise_match_strict(&p, n, rows, &lone, perm, Some(5));
                let just_below: Vec<u64> = random.iter().map(|&x| x >> 12 | 1 << 51).collect();
                assert_elementwise_match_strict(&p, n, rows, &just_below, perm, Some(6));
            }
        }
    }
}

/// The bulk word loops of the wire codec and `CKKS.Add` — decode with the
/// canonicity verdict, encode, compare, add — on whichever build the host
/// dispatches to and on the baseline build by name, against the per-word
/// definitions: every length from nothing to two vectors and a word (and
/// a few longer ones), at every byte alignment, canonical words and one
/// stray word at each position in turn.
#[test]
fn bulk_word_loops_match_their_scalar_twins_and_the_per_word_definitions() {
    const LANES: usize = 8;
    for bits in [30, 50, 61] {
        let p = Modulus::new(generate_ntt_primes(bits, 1, 64).unwrap()[0]).unwrap();
        // Past two vectors, lengths that run the unrolled vector loop and
        // leave it a remainder.
        for len in (0..=2 * LANES + 1).chain([64, 100, 257]) {
            let canonical: Vec<u64> = words(p.value() ^ len as u64, len, |_| 0)
                .iter()
                .map(|&x| x % p.value())
                .collect();
            // `len` stands for "no stray word".
            let everywhere = 0..=len;
            let ends = [
                0,
                31,
                32,
                len / 2,
                len.saturating_sub(9),
                len.saturating_sub(1),
                len,
            ];
            for stray_at in everywhere.filter(|t| len <= 2 * LANES + 1 || ends.contains(t)) {
                let mut src = canonical.clone();
                if stray_at < len {
                    src[stray_at] = if stray_at % 2 == 0 {
                        p.value()
                    } else {
                        u64::MAX
                    };
                }
                for misalign in 0..8 {
                    // Encode appends, whatever is there and however the
                    // end of it is aligned.
                    let mut bytes = vec![0xAB; misalign];
                    encode_le_words(&src, &mut bytes);
                    let per_word: Vec<u8> = src.iter().flat_map(|w| w.to_le_bytes()).collect();
                    assert_eq!(&bytes[..misalign], &vec![0xAB; misalign][..]);
                    let bytes = &bytes[misalign..];
                    assert_eq!(bytes, per_word);

                    let tag = format!("bits {bits} len {len} stray {stray_at} misalign {misalign}");
                    let (mut got, mut twin) = (vec![u64::MAX; len], vec![u64::MAX; len]);
                    let verdict = p.decode_le_words(bytes, &mut got);
                    assert_eq!(verdict, p.decode_le_words_scalar(bytes, &mut twin), "{tag}");
                    assert_eq!(verdict, stray_at == len, "{tag}");
                    assert_eq!((&got, &twin), (&src, &src), "{tag}");

                    assert!(le_words_eq(bytes, &src), "{tag}");
                    if len > 0 {
                        let mut other = src.clone();
                        other[stray_at % len] ^= 1 << (stray_at % 64);
                        assert!(!le_words_eq(bytes, &other), "{tag}");
                        assert!(!le_words_eq(&bytes[1..], &src), "{tag}");
                        assert!(!le_words_eq(bytes, &src[1..]), "{tag}");
                    }
                }
            }
            // Sums of canonical words, some wrapping past p and some not.
            let b: Vec<u64> = canonical
                .iter()
                .enumerate()
                .map(|(t, &x)| match t % 3 {
                    0 => p.value() - 1 - x,
                    1 => p.value() - 1,
                    _ => p.neg_mod(x),
                })
                .collect();
            let want: Vec<u64> = (canonical.iter().zip(&b))
                .map(|(&x, &y)| p.add_mod(x, y))
                .collect();
            let (mut got, mut twin) = (canonical.clone(), canonical.clone());
            p.add_assign_words(&mut got, &b);
            p.add_assign_words_scalar(&mut twin, &b);
            assert_eq!((&got, &twin), (&want, &want), "bits {bits} len {len}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn ntt_roundtrip(coeffs in prop::collection::vec(any::<u64>(), 64)) {
        let p = Modulus::new(generate_ntt_primes(40, 1, 64).unwrap()[0]).unwrap();
        let t = NttTable::new(64, p).unwrap();
        let mut a: Vec<u64> = coeffs.iter().map(|&c| p.reduce_u64(c)).collect();
        let orig = a.clone();
        t.forward(&mut a);
        t.inverse(&mut a);
        prop_assert_eq!(a, orig);
    }

    #[test]
    fn ntt_is_linear(
        a in prop::collection::vec(any::<u64>(), 64),
        b in prop::collection::vec(any::<u64>(), 64),
        s in any::<u64>(),
    ) {
        let p = Modulus::new(generate_ntt_primes(40, 1, 64).unwrap()[0]).unwrap();
        let t = NttTable::new(64, p).unwrap();
        let s = s % p.value();
        let a: Vec<u64> = a.iter().map(|&c| p.reduce_u64(c)).collect();
        let b: Vec<u64> = b.iter().map(|&c| p.reduce_u64(c)).collect();
        // NTT(s·a + b) == s·NTT(a) + NTT(b)
        let mut combo: Vec<u64> = a.iter().zip(&b)
            .map(|(&x, &y)| p.add_mod(p.mul_mod(s, x), y)).collect();
        let (mut ta, mut tb) = (a, b);
        t.forward(&mut combo);
        t.forward(&mut ta);
        t.forward(&mut tb);
        for i in 0..64 {
            prop_assert_eq!(combo[i], p.add_mod(p.mul_mod(s, ta[i]), tb[i]));
        }
    }

    #[test]
    fn convolution_theorem(
        a in prop::collection::vec(any::<u64>(), 32),
        b in prop::collection::vec(any::<u64>(), 32),
    ) {
        let n = 32usize;
        let p = Modulus::new(generate_ntt_primes(40, 1, n).unwrap()[0]).unwrap();
        let t = NttTable::new(n, p).unwrap();
        let a: Vec<u64> = a.iter().map(|&c| p.reduce_u64(c)).collect();
        let b: Vec<u64> = b.iter().map(|&c| p.reduce_u64(c)).collect();
        let mut expect = vec![0u64; n];
        for i in 0..n {
            for j in 0..n {
                let prod = p.mul_mod(a[i], b[j]);
                if i + j < n {
                    expect[i + j] = p.add_mod(expect[i + j], prod);
                } else {
                    expect[i + j - n] = p.sub_mod(expect[i + j - n], prod);
                }
            }
        }
        let (mut ta, mut tb) = (a, b);
        t.forward(&mut ta);
        t.forward(&mut tb);
        let mut prod: Vec<u64> = ta.iter().zip(&tb).map(|(&x, &y)| p.mul_mod(x, y)).collect();
        t.inverse(&mut prod);
        prop_assert_eq!(prod, expect);
    }

    #[test]
    fn crt_compose_decompose_roundtrip(x in any::<u64>()) {
        let primes = generate_ntt_primes(36, 3, 64).unwrap();
        let basis = RnsBasis::new(&primes).unwrap();
        let residues: Vec<u64> = primes.iter().map(|&p| x % p).collect();
        prop_assert_eq!(basis.compose_u128(&residues), x as u128);
    }

    #[test]
    fn crt_centered_roundtrip(x in any::<i64>()) {
        let primes = generate_ntt_primes(36, 3, 64).unwrap();
        let basis = RnsBasis::new(&primes).unwrap();
        let residues: Vec<u64> = primes
            .iter()
            .map(|&p| (x as i128).rem_euclid(p as i128) as u64)
            .collect();
        prop_assert_eq!(basis.compose_centered_i128(&residues), x as i128);
    }

    #[test]
    fn poly_ring_axioms(
        a in prop::collection::vec(any::<u64>(), 32),
        b in prop::collection::vec(any::<u64>(), 32),
    ) {
        let primes = generate_ntt_primes(30, 2, 32).unwrap();
        let mods: Vec<Modulus> = primes.iter().map(|&p| Modulus::new(p).unwrap()).collect();
        let mk = |v: &[u64]| {
            let mut poly = RnsPoly::zero(32, &mods, Representation::Ntt);
            for (i, m) in mods.iter().enumerate() {
                for (dst, &src) in poly.residue_mut(i).iter_mut().zip(v) {
                    *dst = m.reduce_u64(src);
                }
            }
            poly
        };
        let pa = mk(&a);
        let pb = mk(&b);
        prop_assert_eq!(pa.add(&pb).unwrap(), pb.add(&pa).unwrap());
        prop_assert_eq!(pa.dyadic_mul(&pb).unwrap(), pb.dyadic_mul(&pa).unwrap());
        prop_assert_eq!(pa.sub(&pa).unwrap(), RnsPoly::zero(32, &mods, Representation::Ntt));
        // (a - b) + b == a
        prop_assert_eq!(pa.sub(&pb).unwrap().add(&pb).unwrap(), pa);
    }
}

/// Equivalence of the execution backends: `ThreadPool(k)` must be
/// bit-identical to `Sequential` for every parallel hot path. Lane counts
/// cover the degenerate pool (k = 1), one worker (k = 2), and more lanes
/// than the host has cores (k = 4 on single-core CI shards).
mod backend_equivalence {
    use super::*;
    use heax_math::exec::{self, Sequential, ThreadPool};
    use heax_math::ntt::NttTable;

    fn pool_lanes() -> impl Strategy<Value = usize> {
        prop::sample::select(vec![1usize, 2, 4])
    }

    fn rns_poly(seed: u64, n: usize, mods: &[Modulus], repr: Representation) -> RnsPoly {
        let mut poly = RnsPoly::zero(n, mods, repr);
        for (i, m) in mods.iter().enumerate() {
            for (j, c) in poly.residue_mut(i).iter_mut().enumerate() {
                *c = (seed
                    .wrapping_mul(0x9e3779b97f4a7c15)
                    .wrapping_add(((i * n + j) as u64).wrapping_mul(0x2545_f491_4f6c_dd1d)))
                    % m.value();
            }
        }
        poly
    }

    fn moduli_and_tables(n: usize) -> (Vec<Modulus>, Vec<NttTable>) {
        let mut primes = generate_ntt_primes(30, 2, n).unwrap();
        primes.extend(generate_ntt_primes(36, 1, n).unwrap());
        let mods: Vec<Modulus> = primes.iter().map(|&p| Modulus::new(p).unwrap()).collect();
        let tables = mods.iter().map(|&m| NttTable::new(n, m).unwrap()).collect();
        (mods, tables)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn ntt_roundtrip_pool_matches_sequential(seed in any::<u64>(), k in pool_lanes()) {
            let n = 128usize;
            let (mods, tables) = moduli_and_tables(n);
            let pool = ThreadPool::new(k);
            let original = rns_poly(seed, n, &mods, Representation::Coefficient);

            let mut seq = original.clone();
            seq.ntt_forward_with(&tables, &Sequential).unwrap();
            let mut par = original.clone();
            par.ntt_forward_with(&tables, &pool).unwrap();
            prop_assert_eq!(&seq, &par, "forward NTT diverged at k={}", k);

            seq.ntt_inverse_with(&tables, &Sequential).unwrap();
            par.ntt_inverse_with(&tables, &pool).unwrap();
            prop_assert_eq!(&seq, &par, "inverse NTT diverged at k={}", k);
            prop_assert_eq!(&seq, &original, "round-trip is not the identity");
        }

        #[test]
        fn dyadic_ops_pool_match_sequential(seed in any::<u64>(), k in pool_lanes()) {
            let n = 64usize;
            let (mods, _) = moduli_and_tables(n);
            let pool = ThreadPool::new(k);
            let a = rns_poly(seed, n, &mods, Representation::Ntt);
            let b = rns_poly(seed ^ 0xdead_beef, n, &mods, Representation::Ntt);

            let mut seq = a.clone();
            seq.dyadic_mul_assign_with(&b, &Sequential).unwrap();
            let mut par = a.clone();
            par.dyadic_mul_assign_with(&b, &pool).unwrap();
            prop_assert_eq!(&seq, &par, "dyadic mul diverged at k={}", k);

            let mut acc_seq = RnsPoly::zero(n, &mods, Representation::Ntt);
            acc_seq.dyadic_mul_acc_with(&a, &b, &Sequential).unwrap();
            acc_seq.dyadic_mul_acc_with(&b, &a, &Sequential).unwrap();
            let mut acc_par = RnsPoly::zero(n, &mods, Representation::Ntt);
            acc_par.dyadic_mul_acc_with(&a, &b, &pool).unwrap();
            acc_par.dyadic_mul_acc_with(&b, &a, &pool).unwrap();
            prop_assert_eq!(&acc_seq, &acc_par, "dyadic mul-acc diverged at k={}", k);

            prop_assert_eq!(
                a.add(&b).unwrap(),
                {
                    let mut s = a.clone();
                    s.add_assign_with(&b, &pool).unwrap();
                    s
                },
                "add diverged at k={}", k
            );
            prop_assert_eq!(
                a.sub(&b).unwrap(),
                a.sub_with(&b, &pool).unwrap(),
                "sub diverged at k={}", k
            );
        }

        #[test]
        fn limb_batch_helpers_pool_match_sequential(seed in any::<u64>(), k in pool_lanes()) {
            // forward_limbs/inverse_limbs (the batch dispatchers under
            // RnsPoly) seen directly, over raw limb data.
            let n = 64usize;
            let (mods, tables) = moduli_and_tables(n);
            let pool = ThreadPool::new(k);
            let poly = rns_poly(seed, n, &mods, Representation::Coefficient);
            let mut seq = poly.data().to_vec();
            let mut par = seq.clone();
            heax_math::ntt::forward_limbs(&Sequential, &tables, &mut seq, n);
            heax_math::ntt::forward_limbs(&pool, &tables, &mut par, n);
            prop_assert_eq!(&seq, &par);
            heax_math::ntt::inverse_limbs(&Sequential, &tables, &mut seq, n);
            heax_math::ntt::inverse_limbs(&pool, &tables, &mut par, n);
            prop_assert_eq!(&seq, &par);
            prop_assert_eq!(&seq, &poly.data().to_vec());
        }
    }

    #[test]
    fn global_executor_honors_env_contract() {
        // The global backend is read from HEAX_THREADS once; in the test
        // process it is unset (or whatever the harness sets), so just
        // assert the contract between env_threads() and the executor.
        assert_eq!(exec::global().threads(), exec::env_threads());
    }
}
