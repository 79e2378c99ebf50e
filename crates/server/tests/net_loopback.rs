//! Loopback proof of the socket runtime: real TCP connections over
//! 127.0.0.1, scripted fragmentation and disconnect schedules, and a
//! byte-identical in-process [`HeaxServer`] mirror.
//!
//! The harness is single-threaded and deterministic: client sockets
//! are nonblocking and the server is stepped explicitly with
//! [`NetServer::poll`], so every interleaving in these tests is the
//! one the test scripted — no sleeps, no races. The mirror server is
//! fed the exact same frames in the exact same arrival order, flushed
//! at the same boundaries, so replies must match **byte for byte**,
//! and decrypt-verification closes the loop end to end.
//!
//! Every server turn any test here takes goes through [`poll`], which
//! checks the structural half of the work-conserving rule on it: with
//! `flush_on_idle` set, a turn that ingested no frame leaves nothing
//! queued. The timing half — such a turn does not first sleep out the
//! caller's timeout — is `a_lone_request_is_answered_without_waiting_out_the_poll_timeout`.
//!
//! CI runs this suite under both `HEAX_THREADS=1` and
//! `HEAX_THREADS=4`.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use heax_ckks::serialize::{
    deserialize_ciphertext, serialize_ciphertext, serialize_galois_keys, serialize_relin_key,
};
use heax_ckks::{
    Ciphertext, CkksContext, CkksEncoder, Decryptor, Encryptor, GaloisKeys, PublicKey, RelinKey,
    SecretKey,
};
use heax_server::net::{FrameAssembler, NetConfig, NetServer, NetTick};
use heax_server::wire::client::{self, Reply};
use heax_server::wire::{OpCode, Request, WireOperand};
use heax_server::{ErrorCode, HeaxServer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;
use common::{ctx, system};

/// A [`NetConfig`] under which the tests own every flush boundary, so
/// the mirror server can be flushed at the same instants.
fn manual_flush() -> NetConfig {
    NetConfig {
        flush_threshold: usize::MAX,
        flush_on_idle: false,
        ..NetConfig::default()
    }
}

/// One server turn. With `flush_on_idle` set the loop is work-conserving,
/// and every turn of every test is held to the half of that which needs
/// no clock: a turn that ingested no frame has flushed whatever was queued.
fn poll(net: &mut NetServer<'_>, timeout_ms: i32) -> NetTick {
    let tick = net.poll(timeout_ms).unwrap();
    if net.config().flush_on_idle && tick.frames == 0 {
        assert_eq!(
            net.server().queue_depth(),
            0,
            "a turn that read nothing left requests queued: {tick:?}"
        );
    }
    tick
}

/// One simulated client: its own keys and a sample ciphertext.
struct Client {
    sk: SecretKey,
    gks: GaloisKeys,
    ct: Ciphertext,
    vals: Vec<f64>,
}

fn client(ctx: &CkksContext, seed: u64, steps: &[i64]) -> Client {
    let mut rng = StdRng::seed_from_u64(seed);
    let sk = SecretKey::generate(ctx, &mut rng);
    let pk = PublicKey::generate(ctx, &sk, &mut rng);
    let gks = GaloisKeys::generate(ctx, &sk, steps, &mut rng);
    let enc = CkksEncoder::new(ctx);
    let vals: Vec<f64> = (0..ctx.n() / 2)
        .map(|i| (i as f64) * 0.25 - 2.0 + seed as f64 * 0.125)
        .collect();
    let ct = Encryptor::new(ctx, &pk)
        .encrypt(
            &enc.encode_real(&vals, ctx.params().scale(), ctx.max_level())
                .unwrap(),
            &mut rng,
        )
        .unwrap();
    Client { sk, gks, ct, vals }
}

fn decrypt(ctx: &CkksContext, sk: &SecretKey, ct: &Ciphertext) -> Vec<f64> {
    let enc = CkksEncoder::new(ctx);
    enc.decode_real(&Decryptor::new(ctx, sk).decrypt(ct).unwrap())
        .unwrap()
}

/// A client-side loopback connection: nonblocking socket plus a frame
/// assembler for the replies coming back.
struct Conn {
    stream: TcpStream,
    asm: FrameAssembler,
    replies: Vec<Vec<u8>>,
}

impl Conn {
    /// Connects and steps the server until the connection is accepted.
    fn connect(net: &mut NetServer<'_>) -> Conn {
        let before = net.connections();
        let stream = TcpStream::connect(net.local_addr().unwrap()).unwrap();
        stream.set_nonblocking(true).unwrap();
        // A second small write must not wait for the first one's ACK.
        stream.set_nodelay(true).unwrap();
        for _ in 0..100 {
            poll(net, 10);
            if net.connections() > before {
                return Conn {
                    stream,
                    asm: FrameAssembler::new(),
                    replies: Vec::new(),
                };
            }
        }
        panic!("server never accepted the connection");
    }

    /// Writes `bytes` in chunks of at most `chunk` bytes, stepping the
    /// server between chunks so the runtime sees every fragmentation
    /// boundary the schedule dictates.
    fn send_chunked(&mut self, net: &mut NetServer<'_>, bytes: &[u8], chunk: usize) {
        let target = net.stats().bytes_in + bytes.len() as u64;
        for piece in bytes.chunks(chunk.max(1)) {
            let mut off = 0;
            while off < piece.len() {
                match self.stream.write(&piece[off..]) {
                    Ok(n) => off += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        poll(net, 1);
                    }
                    Err(e) => panic!("client write failed: {e}"),
                }
            }
            poll(net, 0);
            self.drain(net);
        }
        // Loopback writes are not synchronously visible to epoll; step
        // the server until every sent byte has actually been ingested.
        for _ in 0..500 {
            if net.stats().bytes_in >= target {
                return;
            }
            poll(net, 1);
            self.drain(net);
        }
        panic!("server never ingested the sent bytes");
    }

    /// Reads whatever the server has written back, assembling frames.
    fn drain(&mut self, net: &mut NetServer<'_>) {
        let _ = net;
        let mut buf = [0u8; 4096];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => self.absorb(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }

    /// Takes bytes read off the socket, keeping the replies they complete.
    fn absorb(&mut self, bytes: &[u8]) {
        self.asm.push(bytes);
        while let Some(frame) = self.asm.next_frame().unwrap() {
            self.replies.push(frame);
        }
    }

    /// Steps the server until this connection has `n` replies total.
    fn recv_until(&mut self, net: &mut NetServer<'_>, n: usize) {
        for _ in 0..500 {
            if self.replies.len() >= n {
                return;
            }
            poll(net, 1);
            self.drain(net);
        }
        panic!(
            "expected {n} replies, got {} after 500 polls",
            self.replies.len()
        );
    }

    /// Reads until this connection has `n` replies total **without
    /// stepping the server**: whatever is missing must already have left
    /// it. Blocks on the socket (a bounded wait, so a reply that never
    /// left fails the test instead of hanging it).
    fn recv_without_polling(&mut self, n: usize) {
        self.stream.set_nonblocking(false).unwrap();
        self.stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut buf = [0u8; 4096];
        while self.replies.len() < n {
            let got = self
                .stream
                .read(&mut buf)
                .expect("the reply was not written out by the turn that produced it");
            assert!(got > 0, "server hung up");
            self.absorb(&buf[..got]);
        }
        self.stream.set_nonblocking(true).unwrap();
    }

    /// Sends a frame whole and waits for one immediate reply.
    fn roundtrip(&mut self, net: &mut NetServer<'_>, frame: &[u8]) -> Vec<u8> {
        let want = self.replies.len() + 1;
        self.send_chunked(net, frame, frame.len());
        self.recv_until(net, want);
        self.replies.last().unwrap().clone()
    }

    /// Opens a session over the socket, returning its id.
    fn open_session(&mut self, net: &mut NetServer<'_>) -> u64 {
        let reply = self.roundtrip(net, &client::open_session());
        let (session, _, reply) = client::parse_reply(&reply).unwrap();
        assert_eq!(reply, Reply::SessionOpened);
        session
    }
}

/// Keys replies by `(session, request)` for order-insensitive
/// byte-identity comparison against the mirror.
fn keyed(replies: &[Vec<u8>]) -> BTreeMap<(u64, u64), Vec<u8>> {
    replies
        .iter()
        .map(|r| {
            let f = heax_server::wire::decode_frame(r).unwrap();
            ((f.session, f.request), r.clone())
        })
        .collect()
}

fn expect_ciphertext(ctx: &CkksContext, frame: &[u8]) -> Ciphertext {
    let (_, _, reply) = client::parse_reply(frame).unwrap();
    match reply {
        Reply::Ciphertext(bytes) => deserialize_ciphertext(&bytes, ctx).unwrap(),
        other => panic!("expected a ciphertext reply, got {other:?}"),
    }
}

/// Rotation moves slot `i+step` into slot `i`.
fn assert_rotated(vals: &[f64], rotated: &[f64], step: usize) {
    let n = vals.len();
    for i in 0..n {
        assert!(
            (rotated[i] - vals[(i + step) % n]).abs() < 0.05,
            "slot {i}: {} != {}",
            rotated[i],
            vals[(i + step) % n]
        );
    }
}

/// The acceptance-criterion test: two connections, every byte of every
/// frame delivered **one byte at a time** (connection B in 3-byte
/// chunks), replies byte-identical to an in-process mirror server fed
/// the same frames in the same order, and decrypt-verified.
#[test]
fn byte_at_a_time_fragmentation_matches_in_process_server() {
    let c = ctx();
    let mut net = NetServer::bind(
        "127.0.0.1:0",
        HeaxServer::with_system(&c, system(&c)),
        manual_flush(),
    )
    .unwrap();
    let mut mirror = HeaxServer::with_system(&c, system(&c));

    let ca = client(&c, 1, &[1]);
    let cb = client(&c, 2, &[2]);
    let mut conn_a = Conn::connect(&mut net);
    let mut conn_b = Conn::connect(&mut net);

    // Scripted frame schedule, connection A first, then B — the mirror
    // sees the identical order.
    let mut mirror_replies = Vec::new();
    let mut drive = |net: &mut NetServer<'_>,
                     mirror: &mut HeaxServer<'_>,
                     conn: &mut Conn,
                     frames: &[Vec<u8>],
                     chunk: usize| {
        for frame in frames {
            conn.send_chunked(net, frame, chunk);
            if let Some(r) = mirror.handle_frame(frame) {
                mirror_replies.push(r);
            }
        }
    };

    // Session ids are assigned in arrival order on both servers.
    let a_frames = vec![client::open_session()];
    drive(&mut net, &mut mirror, &mut conn_a, &a_frames, 1);
    conn_a.recv_until(&mut net, 1);
    let b_frames = vec![client::open_session()];
    drive(&mut net, &mut mirror, &mut conn_b, &b_frames, 3);
    conn_b.recv_until(&mut net, 1);
    let (sa, _, _) = client::parse_reply(&conn_a.replies[0]).unwrap();
    let (sb, _, _) = client::parse_reply(&conn_b.replies[0]).unwrap();
    assert_ne!(sa, sb);

    let a_frames = vec![
        client::register_galois_keys(sa, &serialize_galois_keys(&ca.gks)),
        client::rotate(sa, 10, &serialize_ciphertext(&ca.ct), 1),
        client::rotate(sa, 11, &serialize_ciphertext(&ca.ct), 1),
    ];
    drive(&mut net, &mut mirror, &mut conn_a, &a_frames, 1);
    let b_frames = vec![
        client::register_galois_keys(sb, &serialize_galois_keys(&cb.gks)),
        client::rotate(sb, 20, &serialize_ciphertext(&cb.ct), 2),
        client::rotate(sb, 21, &serialize_ciphertext(&cb.ct), 2),
    ];
    drive(&mut net, &mut mirror, &mut conn_b, &b_frames, 3);
    conn_a.recv_until(&mut net, 2); // open + key ack
    conn_b.recv_until(&mut net, 2);

    // Both servers now hold the same four queued rotations.
    assert_eq!(net.pending_replies(), 4);
    assert_eq!(net.server().queue_depth(), 4);
    assert_eq!(mirror.queue_depth(), 4);
    mirror_replies.extend(mirror.flush());
    net.flush_now();
    conn_a.recv_until(&mut net, 4);
    conn_b.recv_until(&mut net, 4);

    // Byte-identical to the in-process mirror, reply for reply.
    let mut socket_side = conn_a.replies.clone();
    socket_side.extend(conn_b.replies.clone());
    assert_eq!(keyed(&socket_side), keyed(&mirror_replies));

    // And the results are real: decrypt-verify every rotation.
    for (conn, cl, step, ids) in [
        (&conn_a, &ca, 1usize, [10u64, 11]),
        (&conn_b, &cb, 2, [20, 21]),
    ] {
        for (reply, id) in conn.replies[2..].iter().zip(ids) {
            let (_, request, _) = client::parse_reply(reply).unwrap();
            assert_eq!(request, id);
            let rotated = expect_ciphertext(&c, reply);
            assert_rotated(&cl.vals, &decrypt(&c, &cl.sk, &rotated), step);
        }
    }

    let stats = net.stats();
    assert_eq!(stats.accepted, 2);
    assert_eq!(stats.frames_in, 8);
    assert_eq!(stats.hostile_drops, 0);
    assert!(
        stats.partial_frame_reads > 0,
        "byte-at-a-time delivery must exercise partial-frame reads"
    );
}

/// The second acceptance criterion: a connection dies mid-run — after
/// queueing work, before the flush — and its replies are orphaned
/// without disturbing the co-scheduled survivor, whose replies stay
/// byte-identical to the mirror.
#[test]
fn mid_run_disconnect_orphans_only_the_dead_connections_replies() {
    let c = ctx();
    let mut net = NetServer::bind(
        "127.0.0.1:0",
        HeaxServer::with_system(&c, system(&c)),
        manual_flush(),
    )
    .unwrap();
    let mut mirror = HeaxServer::with_system(&c, system(&c));

    let ca = client(&c, 3, &[1]);
    let cb = client(&c, 4, &[1]);
    let mut survivor = Conn::connect(&mut net);
    let mut doomed = Conn::connect(&mut net);

    let sa = survivor.open_session(&mut net);
    let sb = doomed.open_session(&mut net);
    let mut mirror_replies = Vec::new();
    let mut feed = |mirror: &mut HeaxServer<'_>, frame: &[u8]| {
        if let Some(r) = mirror.handle_frame(frame) {
            mirror_replies.push(r);
        }
    };
    feed(&mut mirror, &client::open_session());
    feed(&mut mirror, &client::open_session());

    for (conn, cl, s, id) in [(&mut survivor, &ca, sa, 30u64), (&mut doomed, &cb, sb, 40)] {
        let frames = [
            client::register_galois_keys(s, &serialize_galois_keys(&cl.gks)),
            client::rotate(s, id, &serialize_ciphertext(&cl.ct), 1),
        ];
        for f in &frames {
            conn.send_chunked(&mut net, f, 64);
            feed(&mut mirror, f);
        }
    }
    assert_eq!(net.pending_replies(), 2);

    // The doomed peer hangs up mid-run: half a frame still in flight.
    let half = client::rotate(sb, 41, &serialize_ciphertext(&cb.ct), 1);
    let mut wrote = 0;
    while wrote < half.len() / 2 {
        wrote += doomed.stream.write(&half[wrote..half.len() / 2]).unwrap();
    }
    drop(doomed);
    for _ in 0..50 {
        poll(&mut net, 1);
        if net.connections() == 1 {
            break;
        }
    }
    assert_eq!(net.connections(), 1, "EOF must reap the dead connection");

    // Flush: both queued rotations execute; only the survivor's reply
    // routes.
    mirror_replies.extend(mirror.flush());
    net.flush_now();
    survivor.recv_until(&mut net, 3);

    let stats = net.stats();
    assert_eq!(stats.disconnects, 1);
    assert_eq!(stats.orphaned_replies, 1);
    assert_eq!(stats.replies_routed, 1);

    // The survivor's rotation is byte-identical to the mirror's reply
    // for the same (session, request) — the dead peer changed nothing.
    let mirror_keyed = keyed(&mirror_replies);
    let survivor_rotate = survivor.replies.last().unwrap();
    assert_eq!(mirror_keyed[&(sa, 30)], *survivor_rotate);
    let rotated = expect_ciphertext(&c, survivor_rotate);
    assert_rotated(&ca.vals, &decrypt(&c, &ca.sk, &rotated), 1);

    // The runtime is still serving: a fresh connection works.
    let mut fresh = Conn::connect(&mut net);
    assert_ne!(fresh.open_session(&mut net), 0);
}

/// A hostile connection (garbage bytes where a frame should start) is
/// answered with a structured `Malformed` error frame and dropped;
/// a well-framed-but-invalid frame is answered and the connection
/// lives.
#[test]
fn hostile_bytes_get_an_error_frame_then_the_axe() {
    let c = ctx();
    let mut net = NetServer::bind(
        "127.0.0.1:0",
        HeaxServer::with_system(&c, system(&c)),
        manual_flush(),
    )
    .unwrap();

    // Well-framed, bad version: answered, connection survives.
    let mut sloppy = Conn::connect(&mut net);
    let mut bad_version = client::open_session();
    bad_version[4] = 99;
    let reply = sloppy.roundtrip(&mut net, &bad_version);
    let (_, _, parsed) = client::parse_reply(&reply).unwrap();
    assert!(matches!(parsed, Reply::Error { code, .. } if code == ErrorCode::Malformed));
    assert_eq!(net.connections(), 1);
    assert_eq!(net.stats().hostile_drops, 0);

    // Unframeable garbage: one error frame, then EOF.
    let mut hostile = Conn::connect(&mut net);
    hostile
        .stream
        .write_all(b"this is not a HEAW frame at all, not even close")
        .unwrap();
    for _ in 0..50 {
        poll(&mut net, 1);
        hostile.drain(&mut net);
        if net.connections() == 1 {
            break;
        }
    }
    assert_eq!(net.connections(), 1, "hostile connection must be dropped");
    assert_eq!(net.stats().hostile_drops, 1);
    assert_eq!(hostile.replies.len(), 1, "last words: a structured error");
    let (_, _, parsed) = client::parse_reply(&hostile.replies[0]).unwrap();
    assert!(matches!(parsed, Reply::Error { code, .. } if code == ErrorCode::Malformed));

    // The co-resident connection is untouched and still served.
    assert_ne!(sloppy.open_session(&mut net), 0);
}

/// Requests past the admission bound are answered immediately with the
/// same structured `LoadShed` error the flush-policy deadline machinery
/// uses; admitted requests are unaffected.
#[test]
fn admission_bound_sheds_with_structured_loadshed_frames() {
    let c = ctx();
    let config = NetConfig {
        max_queue_depth: 2,
        ..manual_flush()
    };
    let mut net = NetServer::bind(
        "127.0.0.1:0",
        HeaxServer::with_system(&c, system(&c)),
        config,
    )
    .unwrap();
    let ca = client(&c, 5, &[1]);
    let mut conn = Conn::connect(&mut net);
    let s = conn.open_session(&mut net);
    conn.roundtrip(
        &mut net,
        &client::register_galois_keys(s, &serialize_galois_keys(&ca.gks)),
    );

    let ct_bytes = serialize_ciphertext(&ca.ct);
    conn.send_chunked(&mut net, &client::rotate(s, 1, &ct_bytes, 1), 4096);
    conn.send_chunked(&mut net, &client::rotate(s, 2, &ct_bytes, 1), 4096);
    assert_eq!(net.pending_replies(), 2);

    // Third request: queue is at the bound — shed at the door.
    let shed = conn.roundtrip(&mut net, &client::rotate(s, 3, &ct_bytes, 1));
    let (_, request, parsed) = client::parse_reply(&shed).unwrap();
    assert_eq!(request, 3);
    assert!(matches!(parsed, Reply::Error { code, .. } if code == ErrorCode::LoadShed));
    assert_eq!(net.stats().admission_sheds, 1);
    assert_eq!(net.pending_replies(), 2, "shed request never queued");

    // The admitted requests still execute and verify.
    net.flush_now();
    conn.recv_until(&mut net, 5);
    for reply in &conn.replies[3..] {
        let rotated = expect_ciphertext(&c, reply);
        assert_rotated(&ca.vals, &decrypt(&c, &ca.sk, &rotated), 1);
    }
}

/// A peer that triggers more reply bytes than the runtime will buffer
/// (a reader that never drains) is dropped; a small-reply co-tenant is
/// served normally.
#[test]
fn stalled_reader_is_dropped_without_disturbing_cotenants() {
    let c = ctx();
    let config = NetConfig {
        max_write_buffer: 512, // acks fit; a full ciphertext reply cannot
        ..manual_flush()
    };
    let mut net = NetServer::bind(
        "127.0.0.1:0",
        HeaxServer::with_system(&c, system(&c)),
        config,
    )
    .unwrap();
    let ca = client(&c, 6, &[1]);
    let cb = client(&c, 7, &[1]);

    let mut stalled = Conn::connect(&mut net);
    let mut parker = Conn::connect(&mut net);
    let ss = stalled.open_session(&mut net);
    let sp = parker.open_session(&mut net);
    stalled.roundtrip(
        &mut net,
        &client::register_galois_keys(ss, &serialize_galois_keys(&ca.gks)),
    );
    parker.roundtrip(
        &mut net,
        &client::register_galois_keys(sp, &serialize_galois_keys(&cb.gks)),
    );

    // The stalled peer asks for a full ciphertext back; the parker asks
    // for a tiny parked-handle ack.
    stalled.send_chunked(
        &mut net,
        &client::rotate(ss, 1, &serialize_ciphertext(&ca.ct), 1),
        4096,
    );
    let park = client::request(
        sp,
        2,
        &Request {
            op: OpCode::Rotate,
            step: 1,
            compress_reply: false,
            park_as: Some("kept"),
            operands: vec![WireOperand::Inline(&serialize_ciphertext(&cb.ct))],
        },
    );
    parker.send_chunked(&mut net, &park, 4096);
    assert_eq!(net.pending_replies(), 2);

    net.flush_now();
    for _ in 0..50 {
        poll(&mut net, 1);
        parker.drain(&mut net);
        if net.connections() == 1 {
            break;
        }
    }

    let stats = net.stats();
    assert_eq!(
        stats.overflow_drops, 1,
        "oversized reply burst drops the peer"
    );
    assert_eq!(stats.orphaned_replies, 1);
    assert_eq!(net.connections(), 1);

    // The parker got its ack and its result is really parked.
    parker.recv_until(&mut net, 3);
    let (_, _, parsed) = client::parse_reply(parker.replies.last().unwrap()).unwrap();
    assert!(matches!(parsed, Reply::Parked(name) if name == "kept"));
    assert_eq!(net.server_mut().stats().parked_entries, 1);
}

/// The DRAM-budgeted key LRU over real sockets: with room for only one
/// resident session, two sessions alternating rotations force
/// evict/restore cycles — every reply still decrypt-verifies, repeat
/// requests are byte-identical across an evict/restore cycle, and the
/// eviction/re-registration traffic is billed in both stats layers.
#[test]
fn session_key_lru_evicts_and_restores_over_sockets() {
    let c = ctx();
    let ca = client(&c, 8, &[1]);
    let cb = client(&c, 9, &[1]);
    let gks_a = serialize_galois_keys(&ca.gks);
    let gks_b = serialize_galois_keys(&cb.gks);
    assert_eq!(gks_a.len(), gks_b.len());
    // Budget: one session's keys fit, two sessions' cannot.
    let config = NetConfig {
        key_cache_budget: gks_a.len() as u64 + gks_a.len() as u64 / 2,
        ..manual_flush()
    };
    let mut net = NetServer::bind(
        "127.0.0.1:0",
        HeaxServer::with_system(&c, system(&c)),
        config,
    )
    .unwrap();

    let mut conn_a = Conn::connect(&mut net);
    let mut conn_b = Conn::connect(&mut net);
    let sa = conn_a.open_session(&mut net);
    let sb = conn_b.open_session(&mut net);
    conn_a.roundtrip(&mut net, &client::register_galois_keys(sa, &gks_a));
    assert!(net.key_cache().is_resident(sa));
    conn_b.roundtrip(&mut net, &client::register_galois_keys(sb, &gks_b));
    assert!(net.key_cache().is_resident(sb));
    assert!(!net.key_cache().is_resident(sa), "B's upload evicted A");

    let ct_a = serialize_ciphertext(&ca.ct);
    let ct_b = serialize_ciphertext(&cb.ct);
    // A's request restores A (evicting B); B's request restores B.
    // Repeating request id 100 after a full evict/restore cycle must
    // reproduce the reply byte for byte — the restored keys are the
    // same key material.
    let round = |net: &mut NetServer<'_>,
                 conn: &mut Conn,
                 session: u64,
                 id: u64,
                 bytes: &[u8]|
     -> Vec<u8> {
        conn.send_chunked(net, &client::rotate(session, id, bytes, 1), 4096);
        net.flush_now();
        let want = conn.replies.len() + 1;
        conn.recv_until(net, want);
        conn.replies.last().unwrap().clone()
    };
    let first = round(&mut net, &mut conn_a, sa, 100, &ct_a);
    assert!(net.key_cache().is_resident(sa));
    assert!(!net.key_cache().is_resident(sb));
    let b_reply = round(&mut net, &mut conn_b, sb, 200, &ct_b);
    assert!(net.key_cache().is_resident(sb));
    let second = round(&mut net, &mut conn_a, sa, 100, &ct_a);
    assert_eq!(first, second, "evict/restore must be bit-transparent");

    let rotated = expect_ciphertext(&c, &second);
    assert_rotated(&ca.vals, &decrypt(&c, &ca.sk, &rotated), 1);
    let rotated_b = expect_ciphertext(&c, &b_reply);
    assert_rotated(&cb.vals, &decrypt(&c, &cb.sk, &rotated_b), 1);

    let net_stats = net.stats();
    assert!(net_stats.key_evictions >= 3);
    assert!(net_stats.key_restores >= 3);
    let inner = net.server_mut().stats();
    assert!(inner.key_evictions >= 3);
    assert!(inner.key_reregistrations >= 3);
    assert!(
        net.key_cache().resident_bytes() <= net.key_cache().budget(),
        "the DRAM budget is a hard bound"
    );
}

/// Sends a key registration whole and checks it was accepted.
fn register(net: &mut NetServer<'_>, conn: &mut Conn, frame: &[u8]) {
    let reply = conn.roundtrip(net, frame);
    assert_eq!(client::parse_reply(&reply).unwrap().2, Reply::KeyRegistered);
}

/// Sends one rotation by one slot, flushes, and returns its reply.
fn rotate_once(
    net: &mut NetServer<'_>,
    conn: &mut Conn,
    session: u64,
    id: u64,
    ct: &[u8],
) -> Vec<u8> {
    conn.send_chunked(net, &client::rotate(session, id, ct, 1), 4096);
    net.flush_now();
    let want = conn.replies.len() + 1;
    conn.recv_until(net, want);
    conn.replies.last().unwrap().clone()
}

/// A key is held in one form at a time: decoded by the engine while its
/// session is resident, with nothing held beside it; serialized by the
/// cache once the session is evicted — as many bytes as were uploaded,
/// and none left in the engine; decoded again, and the bytes dropped,
/// when the session comes back.
#[test]
fn a_registered_key_is_held_once() {
    let c = ctx();
    let (ca, cb) = (client(&c, 32, &[1]), client(&c, 33, &[1]));
    let (gks_a, gks_b) = (
        serialize_galois_keys(&ca.gks),
        serialize_galois_keys(&cb.gks),
    );
    let config = NetConfig {
        key_cache_budget: gks_a.len() as u64 * 3 / 2,
        ..manual_flush()
    };
    let mut net = NetServer::bind(
        "127.0.0.1:0",
        HeaxServer::with_system(&c, system(&c)),
        config,
    )
    .unwrap();
    let mut conn_a = Conn::connect(&mut net);
    let mut conn_b = Conn::connect(&mut net);
    let sa = conn_a.open_session(&mut net);
    let sb = conn_b.open_session(&mut net);
    let ct_a = serialize_ciphertext(&ca.ct);

    register(
        &mut net,
        &mut conn_a,
        &client::register_galois_keys(sa, &gks_a),
    );
    assert_eq!(net.key_cache().resident_sessions(), 1);
    assert_eq!(net.key_cache().held_bytes(), 0, "every session is resident");
    let before = rotate_once(&mut net, &mut conn_a, sa, 100, &ct_a);

    register(
        &mut net,
        &mut conn_b,
        &client::register_galois_keys(sb, &gks_b),
    );
    assert!(!net.key_cache().is_resident(sa), "B's upload evicted A");
    assert_eq!(net.key_cache().held_bytes(), gks_a.len() as u64);
    let engine_held = net.server_mut().evict_session_keys(sa).unwrap();
    assert!(engine_held.is_empty(), "the engine still holds A's keys");

    // B leaves, so restoring A evicts nobody.
    conn_b.roundtrip(&mut net, &client::close_session(sb));
    let after = rotate_once(&mut net, &mut conn_a, sa, 100, &ct_a);
    assert!(net.key_cache().is_resident(sa));
    assert_eq!(net.key_cache().held_bytes(), 0, "the restore kept a copy");
    assert_eq!(before, after, "evict/restore must be bit-transparent");
    assert_eq!(net.stats().key_restores, 1);
}

/// A session evicted with both keys that uploads one of them again gets
/// the other back too: the registration restores what the session held
/// before it replaces anything. The budget holds one session's relin and
/// Galois keys.
#[test]
fn reregistering_one_key_of_an_evicted_session_keeps_the_other() {
    let c = ctx();
    let (ca, cb) = (client(&c, 30, &[1]), client(&c, 31, &[1]));
    let mut rng = StdRng::seed_from_u64(30);
    let rlk_a = serialize_relin_key(&RelinKey::generate(&c, &ca.sk, &mut rng));
    let rlk_b = serialize_relin_key(&RelinKey::generate(&c, &cb.sk, &mut rng));
    let (gks_a, gks_b) = (
        serialize_galois_keys(&ca.gks),
        serialize_galois_keys(&cb.gks),
    );
    let config = NetConfig {
        key_cache_budget: (rlk_a.len() + gks_a.len()) as u64,
        ..manual_flush()
    };
    let mut net = NetServer::bind(
        "127.0.0.1:0",
        HeaxServer::with_system(&c, system(&c)),
        config,
    )
    .unwrap();
    let mut conn_a = Conn::connect(&mut net);
    let mut conn_b = Conn::connect(&mut net);
    let sa = conn_a.open_session(&mut net);
    let sb = conn_b.open_session(&mut net);
    let ct_a = serialize_ciphertext(&ca.ct);

    register(
        &mut net,
        &mut conn_a,
        &client::register_relin_key(sa, &rlk_a),
    );
    register(
        &mut net,
        &mut conn_a,
        &client::register_galois_keys(sa, &gks_a),
    );
    let before = rotate_once(&mut net, &mut conn_a, sa, 100, &ct_a);
    register(
        &mut net,
        &mut conn_b,
        &client::register_relin_key(sb, &rlk_b),
    );
    register(
        &mut net,
        &mut conn_b,
        &client::register_galois_keys(sb, &gks_b),
    );
    assert!(!net.key_cache().is_resident(sa), "B's uploads evicted A");

    register(
        &mut net,
        &mut conn_a,
        &client::register_relin_key(sa, &rlk_a),
    );
    assert!(net.key_cache().is_resident(sa));
    let after = rotate_once(&mut net, &mut conn_a, sa, 100, &ct_a);
    let rotated = expect_ciphertext(&c, &after);
    assert_rotated(&ca.vals, &decrypt(&c, &ca.sk, &rotated), 1);
    assert_eq!(
        before, after,
        "A rotates with the Galois keys it registered"
    );
    assert_eq!(net.key_cache().resident_bytes(), config.key_cache_budget);
}

/// A re-registration the budget cannot hold is shed before it is decoded:
/// the key it would have replaced never leaves the engine and serves the
/// session's next request byte for byte as before the attempt.
#[test]
fn an_over_budget_reregistration_is_shed_and_the_old_key_serves() {
    let c = ctx();
    let ca = client(&c, 34, &[1]);
    let gks = serialize_galois_keys(&ca.gks);
    let mut rng = StdRng::seed_from_u64(34);
    let larger = serialize_galois_keys(&GaloisKeys::generate(&c, &ca.sk, &[1, 2, 3], &mut rng));
    let config = NetConfig {
        key_cache_budget: 2 * gks.len() as u64,
        ..manual_flush()
    };
    assert!(larger.len() as u64 > config.key_cache_budget);
    let mut net = NetServer::bind(
        "127.0.0.1:0",
        HeaxServer::with_system(&c, system(&c)),
        config,
    )
    .unwrap();
    let mut conn = Conn::connect(&mut net);
    let s = conn.open_session(&mut net);
    let ct = serialize_ciphertext(&ca.ct);
    register(&mut net, &mut conn, &client::register_galois_keys(s, &gks));
    let before = rotate_once(&mut net, &mut conn, s, 100, &ct);

    let shed = conn.roundtrip(&mut net, &client::register_galois_keys(s, &larger));
    let (_, _, parsed) = client::parse_reply(&shed).unwrap();
    assert!(matches!(parsed, Reply::Error { code, .. } if code == ErrorCode::LoadShed));
    assert_eq!(net.stats().admission_sheds, 1);
    assert!(net.key_cache().is_resident(s));
    assert_eq!(net.key_cache().resident_bytes(), gks.len() as u64);
    assert_eq!(
        net.server_mut().stats().key_evictions,
        0,
        "the pre-upload key left the engine"
    );

    let after = rotate_once(&mut net, &mut conn, s, 100, &ct);
    assert_eq!(before, after, "the pre-upload key serves");
}

/// Socket chaos: scripted socket failures (mid-frame disconnect,
/// connect-then-silence) around a healthy peer. The dead peer's reply
/// is orphaned, the silent one holds its slot, the survivor
/// decrypt-verifies, and both stats layers stay consistent.
#[test]
fn socket_chaos_leaves_the_survivor_served() {
    let c = ctx();
    let inner = HeaxServer::with_system(&c, system(&c));
    let mut net = NetServer::bind("127.0.0.1:0", inner, manual_flush()).unwrap();

    let ch = client(&c, 10, &[1]);
    let cm = client(&c, 11, &[1]);
    let mut healthy = Conn::connect(&mut net);
    let mut mid_frame = Conn::connect(&mut net);
    let silent = Conn::connect(&mut net); // connects, never speaks

    let sh = healthy.open_session(&mut net);
    let sm = mid_frame.open_session(&mut net);
    healthy.roundtrip(
        &mut net,
        &client::register_galois_keys(sh, &serialize_galois_keys(&ch.gks)),
    );
    mid_frame.roundtrip(
        &mut net,
        &client::register_galois_keys(sm, &serialize_galois_keys(&cm.gks)),
    );

    // Both queue a rotation; the chaos peer dies with a second frame
    // half-sent.
    healthy.send_chunked(
        &mut net,
        &client::rotate(sh, 1, &serialize_ciphertext(&ch.ct), 1),
        7,
    );
    mid_frame.send_chunked(
        &mut net,
        &client::rotate(sm, 2, &serialize_ciphertext(&cm.ct), 1),
        7,
    );
    let torn = client::rotate(sm, 3, &serialize_ciphertext(&cm.ct), 1);
    mid_frame.stream.write_all(&torn[..torn.len() / 3]).unwrap();
    drop(mid_frame);
    for _ in 0..50 {
        poll(&mut net, 1);
        if net.connections() == 2 {
            break;
        }
    }

    // Every queued request still executes: the dead peer's reply is
    // orphaned, the survivor's decrypt-verifies.
    net.flush_now();
    healthy.recv_until(&mut net, 3);
    let rotated = expect_ciphertext(&c, healthy.replies.last().unwrap());
    assert_rotated(&ch.vals, &decrypt(&c, &ch.sk, &rotated), 1);

    let net_stats = net.stats();
    assert_eq!(net_stats.disconnects, 1);
    assert_eq!(net_stats.orphaned_replies, 1);
    assert_eq!(net_stats.replies_routed, 1);
    assert_eq!(net.connections(), 2, "healthy + silent are still here");

    let stats = net.server_mut().stats();
    assert_eq!(stats.batched_requests, 2, "both rotations executed");
    drop(silent);
}

/// Auto-flush: with `flush_on_idle`, a quiet poll turn drains the
/// queue without anyone calling `flush_now`; with a small
/// `flush_threshold`, bursts flush as soon as the threshold is hit.
#[test]
fn auto_flush_drains_the_queue_without_manual_flushes() {
    let c = ctx();
    let config = NetConfig {
        flush_threshold: 2,
        flush_on_idle: true,
        ..NetConfig::default()
    };
    let mut net = NetServer::bind(
        "127.0.0.1:0",
        HeaxServer::with_system(&c, system(&c)),
        config,
    )
    .unwrap();
    let ca = client(&c, 12, &[1]);
    let mut conn = Conn::connect(&mut net);
    let s = conn.open_session(&mut net);
    conn.roundtrip(
        &mut net,
        &client::register_galois_keys(s, &serialize_galois_keys(&ca.gks)),
    );

    let ct_bytes = serialize_ciphertext(&ca.ct);
    // One lone request: the idle turn flushes it.
    conn.send_chunked(&mut net, &client::rotate(s, 1, &ct_bytes, 1), 4096);
    conn.recv_until(&mut net, 3);
    // A burst of two: the threshold flushes them.
    conn.send_chunked(&mut net, &client::rotate(s, 2, &ct_bytes, 1), 4096);
    conn.send_chunked(&mut net, &client::rotate(s, 3, &ct_bytes, 1), 4096);
    conn.recv_until(&mut net, 5);

    for reply in &conn.replies[2..] {
        let rotated = expect_ciphertext(&c, reply);
        assert_rotated(&ca.vals, &decrypt(&c, &ca.sk, &rotated), 1);
    }
    assert!(net.stats().flushes >= 2);
    assert_eq!(net.pending_replies(), 0);
}

/// Fragmentation schedules driven by a seeded RNG: random chunk sizes
/// over one connection must be invisible to the protocol layer.
#[test]
fn random_chunk_schedules_are_invisible_to_the_protocol() {
    let c = ctx();
    let mut net = NetServer::bind(
        "127.0.0.1:0",
        HeaxServer::with_system(&c, system(&c)),
        manual_flush(),
    )
    .unwrap();
    let ca = client(&c, 13, &[1]);
    let mut conn = Conn::connect(&mut net);
    let s = conn.open_session(&mut net);

    let mut rng = StdRng::seed_from_u64(1313);
    let frames = [
        client::register_galois_keys(s, &serialize_galois_keys(&ca.gks)),
        client::rotate(s, 1, &serialize_ciphertext(&ca.ct), 1),
        client::rotate(s, 2, &serialize_ciphertext(&ca.ct), 1),
    ];
    // One interleaved byte stream, cut at random points.
    let stream: Vec<u8> = frames.iter().flatten().copied().collect();
    let mut off = 0;
    while off < stream.len() {
        let chunk = rng.gen_range(1..=97.min(stream.len() - off));
        conn.send_chunked(&mut net, &stream[off..off + chunk], chunk);
        off += chunk;
    }
    conn.recv_until(&mut net, 2); // open + key ack
    assert_eq!(net.pending_replies(), 2);
    net.flush_now();
    conn.recv_until(&mut net, 4);
    for reply in &conn.replies[2..] {
        let rotated = expect_ciphertext(&c, reply);
        assert_rotated(&ca.vals, &decrypt(&c, &ca.sk, &rotated), 1);
    }
}

// ---------------------------------------------------------------------
// The work-conserving loop
// ---------------------------------------------------------------------

/// The timeout the tests below hand `poll`: long enough that sleeping it
/// out even once is unmistakable.
const LONG_POLL_MS: i32 = 2_000;

/// What "answered at once" is held to under [`LONG_POLL_MS`]: a quarter
/// of one timeout, and hundreds of times what a served request takes.
const PROMPT: Duration = Duration::from_millis(500);

/// An `Add` of two inline ciphertexts.
fn add(session: u64, id: u64, a: &[u8], b: &[u8]) -> Vec<u8> {
    client::request(
        session,
        id,
        &Request {
            op: OpCode::Add,
            step: 0,
            compress_reply: false,
            park_as: None,
            operands: vec![WireOperand::Inline(a), WireOperand::Inline(b)],
        },
    )
}

/// Takes turns with the long timeout until the runtime has flushed
/// `flushes` times. Every turn but a sleeping one returns at once, so the
/// turn budget is small and exact: blowing it means the loop spun.
fn poll_until_flushed(net: &mut NetServer<'_>, flushes: u64) {
    for _ in 0..8 {
        if net.stats().flushes >= flushes {
            return;
        }
        poll(net, LONG_POLL_MS);
    }
    panic!("no flush after 8 turns: {:?}", net.stats());
}

fn assert_doubled(ctx: &CkksContext, cl: &Client, reply: &[u8]) {
    let sum = decrypt(ctx, &cl.sk, &expect_ciphertext(ctx, reply));
    for (got, v) in sum.iter().zip(&cl.vals) {
        assert!((got - 2.0 * v).abs() < 0.05, "{got} != 2 * {v}");
    }
}

/// The timing half of the rule: a request that is alone in the queue is
/// flushed by the first turn that finds the sockets dry, which does not
/// sleep first — whatever timeout the caller passed.
#[test]
fn a_lone_request_is_answered_without_waiting_out_the_poll_timeout() {
    let c = ctx();
    let mut net = NetServer::bind(
        "127.0.0.1:0",
        HeaxServer::with_system(&c, system(&c)),
        NetConfig::default(),
    )
    .unwrap();
    let ca = client(&c, 20, &[1]);
    let mut conn = Conn::connect(&mut net);
    let s = conn.open_session(&mut net);
    let ct = serialize_ciphertext(&ca.ct);

    conn.stream.write_all(&add(s, 1, &ct, &ct)).unwrap();
    let start = Instant::now();
    poll_until_flushed(&mut net, 1);
    conn.recv_without_polling(2);
    let elapsed = start.elapsed();

    assert!(
        elapsed < PROMPT,
        "a lone Add took {elapsed:?} under poll({LONG_POLL_MS}): the loop slept on queued work"
    );
    assert_eq!(net.stats().flushes, 1);
    assert_doubled(&c, &ca, &conn.replies[1]);
}

/// Batching is "everything that had arrived": requests that reach the
/// sockets while others wait in the queue join their batch, and the one
/// flush happens when a turn finds nothing more to read. The fan-out's
/// first rotation is queued by a turn of its own; the other seven and an
/// unrelated `Add` are written whole before the server's next turn. One
/// flush of nine, one hoisted group of eight, bytes identical to the
/// in-process server given the same nine requests.
#[test]
fn what_had_arrived_flushes_as_one_batch() {
    let c = ctx();
    let mut net = NetServer::bind(
        "127.0.0.1:0",
        HeaxServer::with_system(&c, system(&c)),
        NetConfig::default(),
    )
    .unwrap();
    let mut mirror = HeaxServer::with_system(&c, system(&c));

    let steps: Vec<i64> = (1..=8).collect();
    let ca = client(&c, 21, &steps);
    let mut conn = Conn::connect(&mut net);
    let s = conn.open_session(&mut net);
    let register = client::register_galois_keys(s, &serialize_galois_keys(&ca.gks));
    conn.roundtrip(&mut net, &register);
    let (ms, _, _) = client::parse_reply(&mirror.handle_frame(&client::open_session()).unwrap())
        .expect("mirror session");
    assert_eq!(ms, s);
    mirror.handle_frame(&register).expect("mirror key ack");

    let ct = serialize_ciphertext(&ca.ct);
    let mut frames: Vec<Vec<u8>> = steps
        .iter()
        .map(|&step| client::rotate(s, step as u64, &ct, step))
        .collect();
    frames.push(add(s, 100, &ct, &ct));
    for frame in &frames {
        assert!(mirror.handle_frame(frame).is_none(), "queued, not answered");
    }
    let mirror_replies = mirror.flush();

    conn.stream.set_nonblocking(false).unwrap();
    conn.stream.write_all(&frames[0]).unwrap();
    for _ in 0..8 {
        if net.pending_replies() == 1 {
            break;
        }
        poll(&mut net, LONG_POLL_MS);
    }
    assert_eq!(net.pending_replies(), 1);
    assert_eq!(
        net.stats().flushes,
        0,
        "a turn that read a frame flushes nothing"
    );
    conn.stream.write_all(&frames[1..].concat()).unwrap();
    conn.stream.set_nonblocking(true).unwrap();

    let start = Instant::now();
    poll_until_flushed(&mut net, 1);
    assert!(start.elapsed() < PROMPT);
    // Nine replies can outrun the socket's send buffer; the rest follow
    // as the client reads.
    conn.recv_until(&mut net, 2 + frames.len());

    assert_eq!(net.stats().flushes, 1);
    let stats = net.server_mut().stats();
    assert_eq!((stats.batches, stats.batched_requests), (1, 9));
    assert_eq!((stats.hoisted_groups, stats.hoisted_rotations), (1, 8));
    assert_eq!(conn.replies[2..], mirror_replies[..]);
    for (reply, &step) in conn.replies[2..].iter().zip(&steps) {
        let rotated = expect_ciphertext(&c, reply);
        assert_rotated(&ca.vals, &decrypt(&c, &ca.sk, &rotated), step as usize);
    }
    assert_doubled(&c, &ca, conn.replies.last().unwrap());
}

/// A peer that sends half a frame and goes silent holds nobody up: the
/// flush waits for the sockets to run dry, not for frames to complete.
/// Its own request is served when the rest of it arrives.
#[test]
fn a_stale_half_frame_delays_nobody() {
    let c = ctx();
    let mut net = NetServer::bind(
        "127.0.0.1:0",
        HeaxServer::with_system(&c, system(&c)),
        NetConfig::default(),
    )
    .unwrap();
    let (ca, cb) = (client(&c, 22, &[1]), client(&c, 23, &[1]));
    let mut slow = Conn::connect(&mut net);
    let mut brisk = Conn::connect(&mut net);
    let (sa, sb) = (slow.open_session(&mut net), brisk.open_session(&mut net));
    let (ct_a, ct_b) = (serialize_ciphertext(&ca.ct), serialize_ciphertext(&cb.ct));

    let slow_frame = add(sa, 1, &ct_a, &ct_a);
    let (head, rest) = slow_frame.split_at(slow_frame.len() / 2);
    slow.send_chunked(&mut net, head, head.len());
    assert!(net.stats().partial_frame_reads > 0);

    brisk.stream.write_all(&add(sb, 2, &ct_b, &ct_b)).unwrap();
    let start = Instant::now();
    poll_until_flushed(&mut net, 1);
    brisk.recv_without_polling(2);
    let elapsed = start.elapsed();
    assert!(
        elapsed < PROMPT,
        "a silent peer's half frame cost its neighbour {elapsed:?}"
    );
    assert_doubled(&c, &cb, &brisk.replies[1]);
    assert_eq!(slow.replies.len(), 1, "half a frame is answered by nothing");

    slow.stream.write_all(rest).unwrap();
    poll_until_flushed(&mut net, 2);
    slow.recv_without_polling(2);
    assert_doubled(&c, &ca, &slow.replies[1]);
    assert_eq!(net.stats().flushes, 2);
}

/// `flush_now` ends with the write pass a turn ends with: its replies are
/// on the wire when it returns, not parked until a later turn notices the
/// socket is writable — nothing arms `WRITABLE` for a reply the socket
/// takes whole.
#[test]
fn flush_now_puts_its_replies_on_the_wire() {
    let c = ctx();
    let mut net = NetServer::bind(
        "127.0.0.1:0",
        HeaxServer::with_system(&c, system(&c)),
        manual_flush(),
    )
    .unwrap();
    let ca = client(&c, 24, &[1]);
    let mut conn = Conn::connect(&mut net);
    let s = conn.open_session(&mut net);
    let ct = serialize_ciphertext(&ca.ct);
    conn.send_chunked(&mut net, &add(s, 1, &ct, &ct), 4096);
    assert_eq!(net.pending_replies(), 1);

    assert_eq!(net.flush_now(), 1);
    conn.recv_without_polling(2);
    assert_doubled(&c, &ca, &conn.replies[1]);
    assert_eq!(net.stats().short_writes, 0);
}
