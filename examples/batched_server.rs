//! Batched encrypted service — the Figure 7 deployment story end to
//! end, now served by the real `heax::server` subsystem: the client
//! serializes its ciphertext and evaluation keys, opens a session over
//! the framed wire protocol, registers its keys once (deserialized
//! once, not per request), and submits a pipeline whose
//! intermediates stay **parked in board DRAM** between steps — no
//! serialize/ship/deserialize round trip until the final result.
//!
//! ```text
//! cargo run --release --example batched_server
//! ```

use heax::ckks::serialize::{
    deserialize_ciphertext, serialize_ciphertext, serialize_galois_keys, serialize_relin_key,
};
use heax::ckks::{
    CkksContext, CkksEncoder, CkksParams, Decryptor, Encryptor, GaloisKeys, ParamSet, PublicKey,
    RelinKey, SecretKey,
};
use heax::hw::board::Board;
use heax::server::wire::client::{self, Reply};
use heax::server::wire::{OpCode, Request, WireOperand};
use heax::server::HeaxServer;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- Client ---------------------------------------------------------
    let ctx = CkksContext::new(CkksParams::from_set(ParamSet::SetA)?)?;
    let mut rng = StdRng::seed_from_u64(314);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let pk = PublicKey::generate(&ctx, &sk, &mut rng);
    let rlk = RelinKey::generate(&ctx, &sk, &mut rng);
    let gks = GaloisKeys::generate(&ctx, &sk, &[1], &mut rng);

    let encoder = CkksEncoder::new(&ctx);
    let scale = ctx.params().scale();
    let data: Vec<f64> = (0..16).map(|i| (i as f64) / 4.0).collect();
    let ct = Encryptor::new(&ctx, &pk).encrypt(
        &encoder.encode_real(&data, scale, ctx.max_level())?,
        &mut rng,
    )?;

    // Everything that crosses the wire is bytes.
    let wire_ct = serialize_ciphertext(&ct);
    let wire_rlk = serialize_relin_key(&rlk);
    let wire_gks = serialize_galois_keys(&gks);
    println!(
        "client -> server: ciphertext {} KiB, relin key {} KiB, galois keys {} KiB",
        wire_ct.len() / 1024,
        wire_rlk.len() / 1024,
        wire_gks.len() / 1024
    );

    // ---- Server (host CPU + modeled FPGA board) -------------------------
    let server_ctx = CkksContext::new(CkksParams::from_set(ParamSet::SetA)?)?;
    let mut server = HeaxServer::new(&server_ctx, Board::stratix10())?;

    // Session + keys: deserialization happens exactly once, at
    // registration.
    let reply = server.handle_frame(&client::open_session()).unwrap();
    let (session, _, _) = client::parse_reply(&reply)?;
    for frame in [
        client::register_relin_key(session, &wire_rlk),
        client::register_galois_keys(session, &wire_gks),
    ] {
        let reply = server.handle_frame(&frame).unwrap();
        assert_eq!(client::parse_reply(&reply)?.2, Reply::KeyRegistered);
    }

    // The pipeline: x² parked, rot(x², 1) parked, x² + rot(x², 1) back.
    // Intermediates reference DRAM-parked handles — no PCIe-sized wire
    // payloads between steps.
    let requests = [
        Request {
            op: OpCode::SquareRelin,
            step: 0,
            compress_reply: false,
            park_as: Some("x2"),
            operands: vec![WireOperand::Inline(&wire_ct)],
        },
        Request {
            op: OpCode::Rotate,
            step: 1,
            compress_reply: false,
            park_as: Some("x2_rot"),
            operands: vec![WireOperand::Parked("x2")],
        },
        Request {
            op: OpCode::Add,
            step: 0,
            compress_reply: false,
            park_as: None,
            operands: vec![WireOperand::Parked("x2"), WireOperand::Parked("x2_rot")],
        },
    ];
    for (i, req) in requests.iter().enumerate() {
        assert!(server
            .handle_frame(&client::request(session, i as u64 + 1, req))
            .is_none());
    }
    let replies = server.flush();

    let stats = server.stats();
    println!(
        "server: {} requests in 1 flush, {} parked intermediates ({} KiB board DRAM), \
         queue high-water {}",
        stats.batched_requests,
        stats.parked_entries,
        stats.parked_bytes / 1024,
        stats.queue_high_water,
    );

    // ---- Client again ----------------------------------------------------
    let (_, _, last) = client::parse_reply(replies.last().expect("three replies"))?;
    let Reply::Ciphertext(result_bytes) = last else {
        panic!("expected the final sum inline, got {last:?}");
    };
    println!(
        "server -> client: result {} KiB (intermediates never crossed the wire)",
        result_bytes.len() / 1024
    );
    let result = deserialize_ciphertext(&result_bytes, &ctx)?;
    let got = encoder.decode_real(&Decryptor::new(&ctx, &sk).decrypt(&result)?)?;
    println!("\nclient receives x^2 + rot(x^2, 1):");
    for i in 0..4 {
        let want = data[i] * data[i] + data[i + 1] * data[i + 1];
        println!("  slot {i}: {:.4} (plaintext {:.4})", got[i], want);
        assert!((got[i] - want).abs() < 0.05);
    }
    println!("round trip through the wire protocol + server subsystem verified ✓");
    Ok(())
}
