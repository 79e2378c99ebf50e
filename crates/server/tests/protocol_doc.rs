//! PROTOCOL.md is the normative wire specification; this suite keeps it
//! equal to the code. Each enum table lists exactly the enum's `ALL`
//! entries, the pinned constants hold, and magics and object tags are
//! checked on bytes the encoders write.

use heax_ckks::serialize::{serialize_ciphertext, serialize_seeded_ciphertext};
use heax_ckks::{encrypt_symmetric, encrypt_symmetric_seeded, CkksEncoder, SecretKey};
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
    let full = serialize_ciphertext(&encrypt_symmetric(&ctx, &sk, &pt, &mut rng).unwrap());
    let seeded = encrypt_symmetric_seeded(&ctx, &sk, &pt, &mut rng).unwrap();
    let seeded = serialize_seeded_ciphertext(&seeded);
    // §4: magic, version 1, object tag.
    let tags = table("tag", "object");
    for (bytes, tag, object) in [(full, 3, "ciphertext"), (seeded, 7, "seeded ciphertext")] {
        assert_eq!(bytes[..6], [b'H', b'E', b'A', b'X', 1, tag], "{object}");
        assert!(tags.contains(&(tag.into(), object.into())), "§4 {object}");
    }
}
