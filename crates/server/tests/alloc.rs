//! What a served `Add` allocates once the server is warm: nothing the
//! size of a polynomial or a frame, on any of the four stages a payload
//! byte crosses — the connection's read buffer, the pooled polynomials
//! inline operands decode into, the in-place sum, the reply serialized
//! onto the connection's write buffer — and that the polynomial pool is
//! whole again after every way a request can leave the server.
//!
//! Set-A requests (two 128 KiB inline ciphertexts in, one out) go through
//! the very calls `NetServer` makes: `FrameAssembler::read_from` →
//! `peek_frame` → `HeaxServer::handle_frame` → `consume_frame`, then
//! `flush_into` a sink that appends every reply to one buffer the way a
//! connection's write buffer takes them. What still allocates per request
//! is small and listed in CHANGES.md (PR 20): the request body's and the
//! `Pending`'s operand vectors, two `Arc<Ciphertext>`, the component
//! vectors of two ciphertexts and two views, and a share of the
//! lowering's per-flush stream and member lists (150 allocations per
//! flush of 16, 13 per flush of one).
//!
//! The counter is thread-local (see `counting_alloc`), so the sequential
//! backend is what is measured.

#[path = "../../ckks/tests/support/counting_alloc.rs"]
mod counting_alloc;

use std::sync::Arc;

use counting_alloc::measure;
use heax_ckks::serialize::{serialize_ciphertext, serialized_ciphertext_bytes};
use heax_ckks::{
    encrypt_symmetric, CkksContext, CkksEncoder, CkksParams, Evaluator, ParamSet, SecretKey,
};
use heax_hw::board::Board;
use heax_math::exec::Sequential;
use heax_server::net::FrameAssembler;
use heax_server::server::ReplySink;
use heax_server::wire::{self, client, OpCode, Request, WireOperand};
use heax_server::{HeaxServer, NetConfig, NetServer};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Requests per flush: the live `serve_add_seta` run's batch.
const BATCH: usize = 16;

/// Every reply onto the end of one buffer, as a connection's write buffer
/// takes them; the socket "catches up" when the test clears it.
#[derive(Default)]
struct WriteBuffer {
    out: Vec<u8>,
    replies: usize,
}

impl ReplySink for WriteBuffer {
    fn buffer_for(&mut self, _: usize, _: usize) -> Option<&mut Vec<u8>> {
        self.replies += 1;
        Some(&mut self.out)
    }
}

/// Discards every reply: all its connections are dead.
struct NoOne;

impl ReplySink for NoOne {
    fn buffer_for(&mut self, _: usize, _: usize) -> Option<&mut Vec<u8>> {
        None
    }
}

struct Rig<'a> {
    server: HeaxServer<'a>,
    assembler: FrameAssembler,
    sink: WriteBuffer,
    /// One request frame: `Add` of the ciphertext to itself, both inline.
    request: Vec<u8>,
    /// The reply body every request must get.
    sum: Vec<u8>,
}

fn context() -> CkksContext {
    CkksContext::new(CkksParams::from_set(ParamSet::SetA).unwrap()).unwrap()
}

fn add_request(session: u64, a: &[u8], b: &[u8]) -> Vec<u8> {
    client::request(
        session,
        7,
        &Request {
            op: OpCode::Add,
            step: 0,
            compress_reply: false,
            park_as: None,
            operands: vec![WireOperand::Inline(a), WireOperand::Inline(b)],
        },
    )
}

fn rig(ctx: &CkksContext) -> Rig<'_> {
    let mut rng = StdRng::seed_from_u64(0xA110C);
    let sk = SecretKey::generate(ctx, &mut rng);
    let pt = CkksEncoder::new(ctx)
        .encode_real(&[1.5, -2.0, 0.25], ctx.params().scale(), ctx.max_level())
        .unwrap();
    let ct = encrypt_symmetric(ctx, &sk, &pt, &mut rng).unwrap();
    let eval = Evaluator::with_executor(ctx, Arc::new(Sequential));
    let sum = serialize_ciphertext(&eval.add(&ct, &ct).unwrap());
    let bytes = serialize_ciphertext(&ct);
    let mut server = HeaxServer::new(ctx, Board::stratix10())
        .unwrap()
        .with_executor(Arc::new(Sequential));
    let opened = server.handle_frame(&client::open_session()).unwrap();
    let session = wire::decode_frame(&opened).unwrap().session;
    Rig {
        server,
        assembler: FrameAssembler::new(),
        sink: WriteBuffer::default(),
        request: add_request(session, &bytes, &bytes),
        sum,
    }
}

impl Rig<'_> {
    /// Reads `stream` the way `NetServer::read_ready` does, handing every
    /// complete frame to the server from where it lies in the assembler;
    /// returns the immediate replies.
    fn intake(&mut self, mut stream: &[u8]) -> Vec<Vec<u8>> {
        let mut immediate = Vec::new();
        while self.assembler.read_from(&mut stream).unwrap() > 0 {
            while let Some(frame) = self.assembler.peek_frame().unwrap() {
                immediate.extend(self.server.handle_frame(frame));
                self.assembler.consume_frame();
            }
        }
        immediate
    }

    /// One batch of `batch` requests in, flushed, the socket caught up.
    fn serve_batch(&mut self, stream: &[u8], batch: usize) {
        assert!(self.intake(stream).is_empty(), "requests queue");
        self.sink.replies = 0;
        assert_eq!(self.server.flush_into(&mut self.sink), batch);
        assert_eq!(self.sink.replies, batch);
        self.sink.out.clear();
    }
}

#[test]
fn a_warm_add_allocates_nothing_the_size_of_a_polynomial_or_a_frame() {
    let ctx = context();
    let mut r = rig(&ctx);
    let stream = r.request.repeat(BATCH);

    // Warm-up, checked: the replies are the precomputed sum, byte for
    // byte, each behind its own header.
    assert!(r.intake(&stream).is_empty());
    assert_eq!(r.server.flush_into(&mut r.sink), BATCH);
    let reply_len = wire::response_frame_len(r.sum.len());
    assert_eq!(r.sink.out.len(), BATCH * reply_len);
    for reply in r.sink.out.chunks(reply_len) {
        let frame = wire::decode_frame(reply).unwrap();
        let body = wire::decode_reply(frame.payload).unwrap();
        assert_eq!(body, wire::ReplyBody::Ciphertext(&r.sum));
    }
    r.sink.out.clear();
    r.serve_batch(&stream, BATCH);

    let batches = 4;
    let seen = measure(|| {
        for _ in 0..batches {
            r.serve_batch(&stream, BATCH);
        }
    });
    let requests = (batches * BATCH) as u64;
    assert!(
        seen.largest < 4096,
        "a warm Add made an allocation of {} B; polynomials and frames must come from the \
         pool and the connection's buffers",
        seen.largest
    );
    assert!(
        seen.bytes <= 2048 * requests,
        "{} B over {} allocations for {requests} warm Adds: more than 2 KiB each",
        seen.bytes,
        seen.count
    );

    // A flush of one: what the work-conserving loop runs under light load,
    // where a flush's fixed costs are one request's to bear.
    let request = r.request.clone();
    r.serve_batch(&request, 1);
    let lone = measure(|| {
        for _ in 0..batches {
            r.serve_batch(&request, 1);
        }
    });
    assert!(lone.largest < 4096, "{lone:?}");

    // Counts, which repeat exactly. PR 20's flush allocated 152 times per
    // batch of 16 and 15 times per batch of one; the group cursor and the
    // kept result slots took two off each.
    let per_flush = |a: counting_alloc::Allocs| a.count / batches as u64;
    assert!(per_flush(seen) <= 150, "batch of {BATCH}: {seen:?}");
    assert!(per_flush(lone) <= 13, "batch of 1: {lone:?}");
}

#[test]
fn the_pool_is_whole_again_however_a_request_leaves() {
    let ctx = context();
    let mut r = rig(&ctx);
    let stream = r.request.repeat(BATCH);
    r.serve_batch(&stream, BATCH);
    // A batch of 16 Adds holds 32 operands of 2 polynomials each.
    let whole = r.server.pooled_polys();
    assert_eq!(whole, 4 * BATCH);

    // Queued requests hold the pool's polynomials; a flush returns them.
    assert!(r.intake(&stream).is_empty());
    assert_eq!(r.server.pooled_polys(), 0);
    assert_eq!(r.server.flush_into(&mut r.sink), BATCH);
    assert_eq!(r.server.pooled_polys(), whole);
    r.sink.out.clear();

    // An operand that fails validation — here the second of its request,
    // its very last residue pushed past the modulus — is answered with an
    // error at intake and leaves nothing checked out, the first operand's
    // polynomials included.
    let mut hostile = r.request.clone();
    let last_word = hostile.len() - 8;
    hostile[last_word..].copy_from_slice(&u64::MAX.to_le_bytes());
    let replies = r.intake(&hostile);
    assert_eq!(replies.len(), 1);
    let (_, _, reply) = client::parse_reply(&replies[0]).unwrap();
    assert!(
        matches!(&reply, client::Reply::Error { message, .. } if message.contains("non-canonical residue")),
        "{reply:?}"
    );
    assert_eq!(r.server.queue_depth(), 0);
    assert_eq!(r.server.pooled_polys(), whole);

    // A connection that dies mid-batch: its requests still execute, the
    // replies go nowhere, the polynomials come home.
    assert!(r.intake(&stream).is_empty());
    assert_eq!(r.server.flush_into(&mut NoOne), BATCH);
    assert_eq!(r.server.pooled_polys(), whole);

    // The pool follows demand down as well as up.
    assert!(r.intake(&r.request.clone()).is_empty());
    assert_eq!(r.server.flush_into(&mut NoOne), 1);
    assert_eq!(r.server.pooled_polys(), 4);

    // The in-place sum comes home whatever becomes of it: compressed to
    // one limb for the wire, parked (the board keeps a copy), or never
    // made because the other operand names no parked result.
    let frame = wire::decode_frame(&r.request).unwrap();
    let session = frame.session;
    let body = wire::decode_request(frame.payload, frame.version).unwrap();
    let inline = body.operands[0].clone();
    let variants = [
        Request {
            compress_reply: true,
            ..body.clone()
        },
        Request {
            park_as: Some("sum"),
            ..body.clone()
        },
        Request {
            operands: vec![inline, WireOperand::Parked("nothing")],
            ..body.clone()
        },
    ];
    let frames = variants.map(|req| client::request(session, 8, &req));
    for (frame, held) in frames.iter().zip([4, 4, 2]) {
        assert!(r.intake(frame).is_empty());
        assert_eq!(r.server.flush_into(&mut r.sink), 1);
        assert_eq!(r.server.pooled_polys(), held);
    }
    let mut replies = FrameAssembler::new();
    replies.push(&r.sink.out);
    let replies: Vec<_> = std::iter::from_fn(|| replies.next_frame().unwrap())
        .map(|frame| (frame.len(), client::parse_reply(&frame).unwrap().2))
        .collect();
    let one_limb = wire::response_frame_len(serialized_ciphertext_bytes(ctx.n(), 1, 2));
    assert!(matches!(&replies[0], (len, client::Reply::Ciphertext(_)) if *len == one_limb));
    assert_eq!(replies[1].1, client::Reply::Parked("sum".into()));
    assert!(
        matches!(&replies[2].1, client::Reply::Error { message, .. } if message.contains("nothing")),
        "{replies:?}"
    );
    assert_eq!(replies.len(), 3);
    assert!(r.server.parked(session, "sum").is_some());
}

/// The event loop's own bookkeeping: a turn with nothing to do — no
/// readiness, or a connection that is open and silent — asks the allocator
/// for nothing.
#[test]
fn an_idle_turn_allocates_nothing() {
    let ctx = context();
    let inner = HeaxServer::new(&ctx, Board::stratix10()).unwrap();
    let mut net = NetServer::bind("127.0.0.1:0", inner, NetConfig::default()).unwrap();
    let silent = std::net::TcpStream::connect(net.local_addr().unwrap()).unwrap();
    for _ in 0..200 {
        net.poll(1).unwrap();
        if net.connections() == 1 {
            break;
        }
    }
    assert_eq!(net.connections(), 1);
    let seen = measure(|| {
        for _ in 0..16 {
            net.poll(0).unwrap();
        }
    });
    assert_eq!(seen.count, 0, "{seen:?}");
    drop(silent);
}
