//! Adversarial decoding suite: every object decoder must be
//! **total** on untrusted input — structured `Err`, never a panic or
//! abort — under random truncation, bit flips, oversized length fields,
//! overwritten words, NaN scales, and raw garbage.
//!
//! Every mutated byte string is fed to *every* decoder (not just the one
//! matching its original type), because a hostile peer is not obliged to
//! send the object the server expects: each [`Object`] impl, the zero-copy
//! ciphertext view and the operand decoder. The impls are listed once, in
//! [`objects`], and a test fails if a tag has no decoder there. The
//! evaluation-key codecs are also one-to-one: a Galois container with a
//! repeated or out-of-order element is refused, and a decoded key
//! re-serializes to its input. CI runs this suite under both
//! `HEAX_THREADS=1` and `HEAX_THREADS=4`.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use std::any::type_name;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use heax_ckks::serialize::{
    deserialize_ciphertext, deserialize_operand, serialize_ciphertext, serialize_galois_keys,
    serialize_relin_key, CiphertextView, Object, Tag,
};
use heax_ckks::{
    encrypt_symmetric, encrypt_symmetric_seeded, Ciphertext, CkksContext, CkksEncoder, CkksParams,
    Encryptor, GaloisKeys, KeySwitchKey, ParamSet, Plaintext, PublicKey, RelinKey, SecretKey,
    SeededCiphertext,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Whether `T` decodes `bytes`.
fn decodes<T: Object>(bytes: &[u8], ctx: &CkksContext) -> bool {
    T::decode(bytes, ctx).is_ok()
}

/// An object decoder: the kind it decodes, the tag it reads, and
/// [`decodes`] for that kind.
type Decoder = (&'static str, Tag, fn(&[u8], &CkksContext) -> bool);

/// One entry of [`objects`].
fn decoder<T: Object>() -> Decoder {
    (type_name::<T>(), T::TAG, decodes::<T>)
}

/// Every [`Object`] impl.
fn objects() -> impl Iterator<Item = Decoder> {
    [
        decoder::<Plaintext>(),
        decoder::<Ciphertext>(),
        decoder::<SecretKey>(),
        decoder::<PublicKey>(),
        decoder::<KeySwitchKey>(),
        decoder::<RelinKey>(),
        decoder::<GaloisKeys>(),
        decoder::<SeededCiphertext>(),
    ]
    .into_iter()
}

/// `obj`'s encoding, named by its kind.
fn blob<T: Object>(obj: &T) -> (&'static str, Vec<u8>) {
    let mut bytes = Vec::new();
    obj.encode_append(&mut bytes);
    (type_name::<T>(), bytes)
}

/// Valid serialized objects of every wire type, built once.
struct Corpus {
    ctx: CkksContext,
    blobs: Vec<(&'static str, Vec<u8>)>,
}

fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let chain = heax_math::primes::generate_prime_chain(&[40, 40, 40, 41], 64).unwrap();
        let ctx =
            CkksContext::new(CkksParams::new(64, chain, (1u64 << 32) as f64).unwrap()).unwrap();
        let mut rng = StdRng::seed_from_u64(0xDEC0DE);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let pk = PublicKey::generate(&ctx, &sk, &mut rng);
        let rlk = RelinKey::generate(&ctx, &sk, &mut rng);
        let s_sq = sk.poly().dyadic_mul(sk.poly()).unwrap();
        let ksk = KeySwitchKey::generate(&ctx, &s_sq, &sk, &mut rng);
        let gks = GaloisKeys::generate(&ctx, &sk, &[1, -2], &mut rng);
        let enc = CkksEncoder::new(&ctx);
        let pt = enc
            .encode_real(&[1.5, -2.25, 0.5], ctx.params().scale(), ctx.max_level())
            .unwrap();
        let ct = Encryptor::new(&ctx, &pk).encrypt(&pt, &mut rng).unwrap();
        let seeded = encrypt_symmetric_seeded(&ctx, &sk, &pt, &mut rng).unwrap();
        let blobs = vec![
            blob(&pt),
            blob(&ct),
            blob(&sk),
            blob(&pk),
            blob(&ksk),
            blob(&rlk),
            blob(&gks),
            blob(&seeded),
        ];
        Corpus { ctx, blobs }
    })
}

/// The corpus's encoding of a `T`.
fn blob_of<T: Object>(c: &Corpus) -> &[u8] {
    let kind = type_name::<T>();
    &c.blobs.iter().find(|(name, _)| *name == kind).unwrap().1
}

/// Runs every decoder over the bytes; returns how many accepted. Any
/// panic propagates to the caller's `catch_unwind`. Every [`objects`]
/// entry, the zero-copy view (parse *and* materialize) and the
/// tag-dispatching operand decoder face the same hostile bytes.
fn decode_all(ctx: &CkksContext, bytes: &[u8]) -> usize {
    let mut ok = objects()
        .filter(|(_, _, decodes)| decodes(bytes, ctx))
        .count();
    ok += usize::from(
        CiphertextView::parse(bytes)
            .and_then(|v| v.to_ciphertext(ctx))
            .is_ok(),
    );
    ok += usize::from(deserialize_operand(bytes, ctx).is_ok());
    ok
}

/// Asserts "no panic" for a mutated input, via `catch_unwind` so a
/// violation reports the mutation instead of killing the harness.
fn assert_total(ctx: &CkksContext, bytes: &[u8]) -> Result<(), TestCaseError> {
    let outcome = catch_unwind(AssertUnwindSafe(|| decode_all(ctx, bytes)));
    prop_assert!(
        outcome.is_ok(),
        "a decoder panicked on {} mutated bytes",
        bytes.len()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random structural mutations of valid objects never panic any
    /// decoder.
    #[test]
    fn mutated_objects_never_panic(
        blob_idx in any::<u64>(),
        kind in 0usize..5,
        pos in any::<u64>(),
        bit in 0u8..8,
        word in any::<u64>(),
    ) {
        let c = corpus();
        let (_, blob) = &c.blobs[(blob_idx % c.blobs.len() as u64) as usize];
        let mut bytes = blob.clone();
        let len = bytes.len();
        match kind {
            // Truncation at an arbitrary boundary.
            0 => bytes.truncate((pos % (len as u64 + 1)) as usize),
            // Single bit flip.
            1 => bytes[(pos % len as u64) as usize] ^= 1 << bit,
            // Overwrite an aligned-ish u64 — this is how hostile length
            // fields (up to u64::MAX) and non-canonical residues appear.
            2 => {
                let at = (pos % (len as u64 - 8)) as usize;
                bytes[at..at + 8].copy_from_slice(&word.to_le_bytes());
            }
            // Non-finite scale in the header region (offset 14 is the
            // scale field of plaintext/ciphertext layouts; for other
            // objects it is just another corruption).
            3 => {
                let nan = if word % 2 == 0 { f64::NAN } else { f64::INFINITY };
                bytes[14..22].copy_from_slice(&nan.to_le_bytes());
            }
            // Trailing garbage.
            _ => bytes.extend_from_slice(&word.to_le_bytes()),
        }
        assert_total(&c.ctx, &bytes)?;
    }

    /// Raw random bytes never panic and are never accepted.
    #[test]
    fn random_garbage_rejected_without_panic(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let c = corpus();
        assert_total(&c.ctx, &bytes)?;
        let accepted = catch_unwind(AssertUnwindSafe(|| decode_all(&c.ctx, &bytes)))
            .expect("checked above");
        prop_assert_eq!(accepted, 0, "random garbage must never decode");
    }

    /// Every strict prefix of a valid object is rejected (no decoder
    /// accepts truncated input), still without panicking.
    #[test]
    fn strict_prefixes_always_error(
        blob_idx in any::<u64>(),
        cut in any::<u64>(),
    ) {
        let c = corpus();
        let (name, blob) = &c.blobs[(blob_idx % c.blobs.len() as u64) as usize];
        let cut = (cut % blob.len() as u64) as usize;
        let bytes = &blob[..cut];
        assert_total(&c.ctx, bytes)?;
        let accepted = catch_unwind(AssertUnwindSafe(|| decode_all(&c.ctx, bytes)))
            .expect("checked above");
        prop_assert_eq!(accepted, 0, "truncated {} decoded at cut {}", name, cut);
    }
}

/// Deterministic spot checks for the two hardening fixes, independent of
/// the random sweep: NaN/tiny scales and hostile length fields.
#[test]
fn nan_scale_and_huge_lengths_are_structured_errors() {
    let c = corpus();
    for (name, blob) in &c.blobs[..2] {
        // plaintext, ciphertext: scale at offset 14.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, 1.999] {
            let mut bytes = blob.clone();
            bytes[14..22].copy_from_slice(&bad.to_le_bytes());
            let pt = Plaintext::decode(&bytes, &c.ctx);
            let ct = deserialize_ciphertext(&bytes, &c.ctx);
            assert!(
                pt.is_err() && ct.is_err(),
                "{name} with scale {bad} must be rejected"
            );
        }
    }
    // Huge length fields planted over every u64-aligned offset must
    // never allocate-then-crash; scan the whole ciphertext blob.
    let (_, ct_blob) = &c.blobs[1];
    for at in (0..ct_blob.len() - 8).step_by(8) {
        let mut bytes = ct_blob.clone();
        bytes[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let _ = catch_unwind(AssertUnwindSafe(|| decode_all(&c.ctx, &bytes)))
            .unwrap_or_else(|_| panic!("panic with u64::MAX planted at offset {at}"));
    }
}

/// The bulk decode pass checks canonicity with one OR-reduced compare per
/// limb instead of a branch per word, so the verdict must not depend on
/// where in a limb — which lane, which unrolled copy, the vector loop or
/// its scalar remainder — the stray word sits. Rings of 8 and 16
/// coefficients are all remainder or a single vector, so every position
/// is planted; the 64-coefficient ring gets each limb's first word, last
/// word and whole final vector. Both the smallest non-canonical value
/// (`p` itself) and the largest are tried, through the owned, the view and
/// the operand entry points, and each must fail with the one error the
/// per-word loop gave.
#[test]
fn a_non_canonical_residue_is_rejected_wherever_it_sits() {
    for n in [8usize, 16, 64] {
        let chain = heax_math::primes::generate_prime_chain(&[40, 40, 40, 41], n).unwrap();
        let ctx =
            CkksContext::new(CkksParams::new(n, chain, (1u64 << 32) as f64).unwrap()).unwrap();
        let mut rng = StdRng::seed_from_u64(0xCA40 + n as u64);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let pt = CkksEncoder::new(&ctx)
            .encode_real(&[0.5], ctx.params().scale(), ctx.max_level())
            .unwrap();
        let ct = encrypt_symmetric(&ctx, &sk, &pt, &mut rng).unwrap();
        let blob = serialize_ciphertext(&ct);
        assert!(deserialize_ciphertext(&blob, &ctx).is_ok());

        let limbs = ctx.max_level() + 1;
        // header, level, scale, size; then per component n, repr, the
        // modulus count and values, the word count, the words.
        let poly_head = 8 + 1 + 8 + 8 * limbs + 8;
        let poly_len = poly_head + 8 * limbs * n;
        let word_at = |component: usize, limb: usize, index: usize| {
            6 + 8 + 8 + 8 + component * poly_len + poly_head + 8 * (limb * n + index)
        };
        assert_eq!(word_at(1, limbs - 1, n - 1) + 8, blob.len());

        let positions: Vec<usize> = if n <= 16 {
            (0..n).collect()
        } else {
            [0].into_iter().chain(n - 8..n).collect()
        };
        for component in 0..2 {
            for (limb, p) in ctx.level_moduli(ctx.max_level()).iter().enumerate() {
                for &index in &positions {
                    for stray in [p.value(), u64::MAX] {
                        let mut bytes = blob.clone();
                        let at = word_at(component, limb, index);
                        bytes[at..at + 8].copy_from_slice(&stray.to_le_bytes());
                        let errors = [
                            deserialize_ciphertext(&bytes, &ctx).unwrap_err(),
                            CiphertextView::parse(&bytes)
                                .unwrap()
                                .to_ciphertext(&ctx)
                                .unwrap_err(),
                            deserialize_operand(&bytes, &ctx).unwrap_err(),
                        ];
                        for e in errors {
                            assert_eq!(
                                e.to_string(),
                                "invalid parameters: malformed serialized data: non-canonical residue",
                                "n={n} component {component} limb {limb} word {index} = {stray}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Keys are held packed at the chain's width, so a word's high bytes are
/// dropped on the way in: the decoder must refuse a key word at or above
/// its prime before that, whichever key kind carries it. `p` itself,
/// `u64::MAX` and `2^(8w)` — non-canonical but zero in the `w` bytes the
/// key keeps — are planted at each limb's first and last word of every
/// component, in a relinearization key and in each record of a Galois
/// container, and each must fail with the codec's one canonicity error.
#[test]
fn a_key_word_at_or_above_its_prime_is_refused_in_either_key_kind() {
    let c = corpus();
    let (ctx, n) = (&c.ctx, c.ctx.n());
    let chain = ctx.moduli();
    let width = chain.iter().map(|m| m.bits()).max().unwrap().div_ceil(8);
    // A key: header, d; per component n, repr, the modulus count and
    // values, the word count, the words.
    let poly_head = 8 + 1 + 8 + 8 * chain.len() + 8;
    let poly_len = poly_head + 8 * chain.len() * n;
    let word_at = |key: usize, component: usize, limb: usize, index: usize| {
        key + 6 + 8 + component * poly_len + poly_head + 8 * (limb * n + index)
    };
    let relin = blob_of::<RelinKey>(c);
    let galois = blob_of::<GaloisKeys>(c);
    let d = ctx.params().k();
    assert_eq!(
        word_at(0, 2 * d - 1, chain.len() - 1, n - 1) + 8,
        relin.len()
    );
    // Each Galois record's key starts after its element and length.
    let mut records = vec![];
    let mut at = 6 + 8;
    while at < galois.len() {
        records.push(at + 16);
        at += 16 + u64::from_le_bytes(galois[at + 8..at + 16].try_into().unwrap()) as usize;
    }
    assert_eq!(records.len(), 2);
    type Decode = fn(&[u8], &CkksContext) -> Result<(), heax_ckks::CkksError>;
    let relin_decode: Decode = |b, ctx| RelinKey::decode(b, ctx).map(drop);
    let galois_decode: Decode = |b, ctx| GaloisKeys::decode(b, ctx).map(drop);
    let targets = [
        (relin, vec![0], relin_decode),
        (galois, records, galois_decode),
    ];
    for (bytes, keys, decode) in targets {
        assert!(decode(bytes, ctx).is_ok());
        for key in keys {
            for component in 0..2 * d {
                for (limb, p) in chain.iter().enumerate() {
                    for index in [0, n - 1] {
                        for stray in [p.value(), u64::MAX, 1 << (8 * width)] {
                            let mut bad = bytes.to_vec();
                            let at = word_at(key, component, limb, index);
                            bad[at..at + 8].copy_from_slice(&stray.to_le_bytes());
                            assert_eq!(
                                decode(&bad, ctx).unwrap_err().to_string(),
                                "invalid parameters: malformed serialized data: non-canonical residue",
                                "key at {key}, component {component}, limb {limb}, word {index} = {stray}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The `(element, key bytes)` records of a serialized Galois container:
/// header, count, then per record the element, the key's length and the
/// key.
fn galois_records(blob: &[u8]) -> Vec<(u64, &[u8])> {
    let word = |at: usize| u64::from_le_bytes(blob[at..at + 8].try_into().unwrap());
    let mut at = 6 + 8;
    (0..word(6))
        .map(|_| {
            let (elt, len) = (word(at), word(at + 8) as usize);
            let key = &blob[at + 16..at + 16 + len];
            at += 16 + len;
            (elt, key)
        })
        .collect()
}

/// A Galois container holding `records` in the order given, under the
/// header of `like`.
fn galois_container(like: &[u8], records: &[(u64, &[u8])]) -> Vec<u8> {
    let mut out = like[..6].to_vec();
    out.extend_from_slice(&(records.len() as u64).to_le_bytes());
    for (elt, key) in records {
        out.extend_from_slice(&elt.to_le_bytes());
        out.extend_from_slice(&(key.len() as u64).to_le_bytes());
        out.extend_from_slice(key);
    }
    out
}

/// A Galois container decodes one way only: each element must exceed the
/// one before it. A repeat would otherwise let the later key silently win,
/// so the container would hold fewer bytes than the message carries, and
/// an out-of-order one would re-serialize to different bytes.
#[test]
fn a_galois_element_must_exceed_the_one_before_it() {
    let c = corpus();
    let blob = blob_of::<GaloisKeys>(c);
    let records = galois_records(blob);
    assert!(galois_container(blob, &records) == *blob);
    let [lo, hi] = records[..] else {
        panic!("the corpus registers two steps");
    };
    assert!(lo.0 < hi.0, "the serializer writes elements ascending");
    for (what, order) in [
        ("descending", vec![hi, lo]),
        ("repeated", vec![lo, lo]),
        ("repeated with another key", vec![lo, (lo.0, hi.1)]),
        ("repeated after an ascent", vec![lo, hi, hi]),
    ] {
        let bytes = galois_container(blob, &order);
        let e = GaloisKeys::decode(&bytes, &c.ctx).unwrap_err();
        assert_eq!(
            e.to_string(),
            "invalid parameters: malformed serialized data: Galois elements not strictly increasing",
            "{what}"
        );
    }
}

/// Evaluation keys re-serialize to the bytes they were decoded from, at
/// every paper parameter set — so what a server holds for an evicted
/// session is the upload exactly, and bills what it held.
#[test]
fn evaluation_keys_reserialize_to_their_upload_at_every_set() {
    for set in ParamSet::ALL {
        let ctx = CkksContext::new(CkksParams::from_set(set).unwrap()).unwrap();
        let mut rng = StdRng::seed_from_u64(0x0E0C + set.n() as u64);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let rlk = serialize_relin_key(&RelinKey::generate(&ctx, &sk, &mut rng));
        // Steps out of order: the container sorts them on the way out.
        let gks = serialize_galois_keys(&GaloisKeys::generate(&ctx, &sk, &[3, -1], &mut rng));
        let rlk_back = serialize_relin_key(&RelinKey::decode(&rlk, &ctx).unwrap());
        assert!(rlk_back == rlk, "{set:?} relin key");
        let gks_back = serialize_galois_keys(&GaloisKeys::decode(&gks, &ctx).unwrap());
        assert!(gks_back == gks, "{set:?} Galois keys");
    }
}

/// A length field is only ever a claim about bytes that must already be
/// there: whatever is planted in one, no decoder asks the allocator for
/// more than the message itself weighs.
#[test]
fn a_hostile_length_field_reserves_nothing_the_message_does_not_back() {
    let c = corpus();
    for (name, blob) in &c.blobs {
        for at in (0..blob.len() - 8).step_by(8).take(64) {
            for huge in [u64::MAX, 1 << 40, 1 << 28, blob.len() as u64] {
                let mut bytes = blob.clone();
                bytes[at..at + 8].copy_from_slice(&huge.to_le_bytes());
                let seen = counting_alloc::measure(|| {
                    decode_all(&c.ctx, &bytes);
                });
                assert!(
                    seen.largest <= blob.len() as u64,
                    "{name}: {huge} planted at {at} made a decoder allocate {} B for a {} B message",
                    seen.largest,
                    blob.len()
                );
            }
        }
    }
}

/// The decoder list covers every object tag, and each kind in the corpus
/// is decoded by its own entry, under the tag its encoding carries — so an
/// object kind cannot go unfuzzed by being left out of [`objects`].
#[test]
fn every_object_kind_has_a_decoder_in_the_list() {
    for tag in Tag::ALL {
        assert!(
            objects().any(|(_, t, _)| t == tag),
            "no decoder in objects() reads {tag:?}"
        );
    }
    let c = corpus();
    for (kind, bytes) in &c.blobs {
        let entry = objects().find(|(k, _, _)| k == kind);
        let (_, tag, decodes) = entry.unwrap_or_else(|| panic!("{kind} is not in objects()"));
        assert_eq!(bytes[5], tag as u8, "{kind}");
        assert!(decodes(bytes, &c.ctx), "{kind}");
    }
}
