//! PROTOCOL.md is the normative wire specification; this suite keeps it
//! equal to the code. Each enum table lists exactly the enum's `ALL`
//! entries, the pinned constants hold, and magics and object tags are
//! checked on bytes the encoders write.

use heax_ckks::serialize::{Object, Tag};
use heax_ckks::{
    encrypt_symmetric, encrypt_symmetric_seeded, CkksEncoder, GaloisKeys, KeySwitchKey, PublicKey,
    RelinKey, SecretKey,
};
use heax_math::sampling::EXPAND_SEED_LEN;
use heax_server::net::MAX_FRAME_PAYLOAD;
use heax_server::wire::{self, FRAME_HEADER_LEN, FRAME_MAGIC, REQUEST_FLAG_COMPRESS_REPLY};
use heax_server::wire::{WIRE_V1, WIRE_V2};
use heax_server::{ErrorCode, MessageKind, OpCode};
use rand::rngs::StdRng;
use rand::SeedableRng;

mod common;
use common::ctx;

const DOC: &str = include_str!("../../../PROTOCOL.md");

/// The `(number, name)` rows of the table whose header starts `| a | b |`.
fn table(a: &str, b: &str) -> Vec<(u64, String)> {
    let cells = |l: &str| -> Vec<String> { l.split('|').map(|c| c.trim().to_string()).collect() };
    let mut lines = DOC
        .lines()
        .skip_while(|l| !cells(l).starts_with(&["".into(), a.into(), b.into()]));
    assert!(
        lines.next().is_some(),
        "PROTOCOL.md has no `| {a} | {b} |` table"
    );
    lines
        .skip(1) // the `|---|` separator
        .take_while(|l| l.starts_with('|'))
        .map(|l| (cells(l)[1].parse().unwrap(), cells(l)[2].clone()))
        .collect()
}

fn rows<T: Copy + std::fmt::Debug>(all: &[T], value: impl Fn(T) -> u64) -> Vec<(u64, String)> {
    all.iter().map(|&v| (value(v), format!("{v:?}"))).collect()
}

#[test]
fn enum_tables_list_exactly_the_enums() {
    let errors = rows(&ErrorCode::ALL, |c| c as u64);
    assert_eq!(table("code", "name"), errors, "§3.3");
    let kinds = rows(&MessageKind::ALL, |k| k as u64);
    assert_eq!(table("value", "kind"), kinds, "§1.1");
    assert_eq!(
        table("value", "op"),
        rows(&OpCode::ALL, |o| o as u64),
        "§2.1"
    );
}

#[test]
fn pinned_wire_constants_hold() {
    assert_eq!(FRAME_HEADER_LEN, 26);
    assert!(DOC.contains("The header is 26 bytes"), "§1");
    assert_eq!((WIRE_V1, WIRE_V2), (1, 2), "§1.2");
    assert_eq!(REQUEST_FLAG_COMPRESS_REPLY, 0x01, "§2");
    assert_eq!(EXPAND_SEED_LEN, 32, "§4.4");
    assert_eq!(MAX_FRAME_PAYLOAD, 1 << 26, "§7.2");
    assert_eq!(FRAME_MAGIC, *b"HEAW", "§1");
}

/// The first six bytes `obj` encodes to, and the tag its kind declares.
fn head<T: Object>(obj: &T) -> ([u8; 6], Tag) {
    let mut bytes = Vec::new();
    obj.encode_append(&mut bytes);
    (bytes[..6].try_into().unwrap(), T::TAG)
}

#[test]
fn magics_and_object_tags_are_what_the_encoders_write() {
    let frame = wire::encode_frame(WIRE_V2, MessageKind::OpenSession, 0, 0, &[]);
    assert_eq!((&frame[..4], frame.len()), (&b"HEAW"[..], FRAME_HEADER_LEN));

    let ctx = ctx();
    let mut rng = StdRng::seed_from_u64(26);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let enc = CkksEncoder::new(&ctx);
    let pt = enc
        .encode_real(&[1.0], ctx.params().scale(), ctx.max_level())
        .unwrap();
    let ct = encrypt_symmetric(&ctx, &sk, &pt, &mut rng).unwrap();
    let seeded = encrypt_symmetric_seeded(&ctx, &sk, &pt, &mut rng).unwrap();
    let s_sq = sk.poly().dyadic_mul(sk.poly()).unwrap();
    let ksk = KeySwitchKey::generate(&ctx, &s_sq, &sk, &mut rng);
    let pk = PublicKey::generate(&ctx, &sk, &mut rng);
    let rlk = RelinKey::generate(&ctx, &sk, &mut rng);
    let gks = GaloisKeys::generate(&ctx, &sk, &[1], &mut rng);
    let key_switching = "key-switching key (also the Galois-keys container)";
    // §4: magic, version 1, object tag — for every object kind.
    let tags = table("tag", "object");
    for ((bytes, tag), object) in [
        (head(&pt), "plaintext"),
        (head(&ct), "ciphertext"),
        (head(&sk), "secret key"),
        (head(&pk), "public key"),
        (head(&ksk), key_switching),
        (head(&rlk), key_switching),
        (head(&gks), key_switching),
        (head(&seeded), "seeded ciphertext"),
    ] {
        assert_eq!(bytes, [b'H', b'E', b'A', b'X', 1, tag as u8], "{object}");
        assert!(tags.contains(&(tag as u64, object.into())), "§4 {object}");
    }
    // The table lists every tag, and tag 1 as reserved.
    let values: Vec<u64> = tags.iter().map(|&(v, _)| v).collect();
    let all: Vec<u64> = Tag::ALL.iter().map(|&t| t as u64).collect();
    assert_eq!(values, [&[1][..], &all].concat(), "§4");
    assert!(tags[0].1.starts_with("reserved"), "§4 tag 1");
}
