//! What a served `Add` allocates once the server is warm: nothing the
//! size of a polynomial or a frame, on any of the four stages a payload
//! byte crosses — the connection's read buffer, the recycled polynomials
//! inline operands decode into, the in-place sum, the reply serialized
//! onto the connection's write buffer — and that the thread's polynomial
//! recycler is whole again after every way a request can leave the
//! server. A warm fan-out of `Rotate`s allocates nothing
//! polynomial-sized either, with its replies compressed or not.
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
//! Parking copies nothing either: a parked result is the ciphertext the
//! request made, a `Fetch` hands it back as it lies, and resolving a
//! parked operand is a lookup in its session.
//!
//! The counter is thread-local (see `counting_alloc`), like the
//! recycler, so the sequential backend is what is measured.

#[path = "../../ckks/tests/support/counting_alloc.rs"]
mod counting_alloc;

use std::sync::Arc;

use counting_alloc::measure;
use heax_ckks::serialize::{
    serialize_ciphertext, serialize_galois_keys, serialize_seeded_ciphertext,
    serialized_ciphertext_bytes,
};
use heax_ckks::{
    encrypt_symmetric, encrypt_symmetric_seeded, CkksContext, CkksEncoder, CkksParams, Evaluator,
    GaloisKeys, ParamSet, SecretKey,
};
use heax_hw::board::Board;
use heax_math::exec::Sequential;
use heax_math::poly::recycled_buffers;
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

    /// [`Rig::serve_batch`], returning what the flush alone allocated.
    fn flush_allocs(&mut self, stream: &[u8], batch: usize) -> counting_alloc::Allocs {
        assert!(self.intake(stream).is_empty(), "requests queue");
        let (server, sink) = (&mut self.server, &mut self.sink);
        let seen = measure(|| assert_eq!(server.flush_into(sink), batch));
        self.sink.out.clear();
        seen
    }

    /// The session the rig's requests belong to.
    fn session(&self) -> u64 {
        wire::decode_frame(&self.request).unwrap().session
    }

    /// The rig's `Add` request with its body edited.
    fn edited(&self, edit: impl FnOnce(&mut Request<'_>)) -> Vec<u8> {
        let frame = wire::decode_frame(&self.request).unwrap();
        let mut body = wire::decode_request(frame.payload, frame.version).unwrap();
        edit(&mut body);
        client::request(frame.session, 9, &body)
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
         recycler and the connection's buffers",
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
    let whole = recycled_buffers();
    assert_eq!(whole, 4 * BATCH);

    // Queued requests hold the recycler's polynomials; a flush returns
    // them.
    assert!(r.intake(&stream).is_empty());
    assert_eq!(recycled_buffers(), 0);
    assert_eq!(r.server.flush_into(&mut r.sink), BATCH);
    assert_eq!(recycled_buffers(), whole);
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
    assert_eq!(recycled_buffers(), whole);

    // A connection that dies mid-batch: its requests still execute, the
    // replies go nowhere, the polynomials come home.
    assert!(r.intake(&stream).is_empty());
    assert_eq!(r.server.flush_into(&mut NoOne), BATCH);
    assert_eq!(recycled_buffers(), whole);

    // The recycler follows demand down as well as up: a flush settles it.
    assert!(r.intake(&r.request.clone()).is_empty());
    assert_eq!(r.server.flush_into(&mut NoOne), 1);
    assert_eq!(recycled_buffers(), 4);

    // The in-place sum comes home when it is compressed to one limb for
    // the wire, or never made because the other operand names no parked
    // result. Parked, it is what the session holds, not a copy of it, so
    // only the second operand's polynomials come home. The compressed
    // reply's two one-residue polynomials are taken from the recycler and
    // come home too, and stay on its list after: the later counts are two
    // higher than the full-size polynomials alone would make them.
    let frames = [
        r.edited(|body| body.compress_reply = true),
        r.edited(|body| body.park_as = Some("sum")),
        r.edited(|body| body.operands[1] = WireOperand::Parked("nothing")),
    ];
    for (frame, held) in frames.iter().zip([6, 4, 4]) {
        assert!(r.intake(frame).is_empty());
        assert_eq!(r.server.flush_into(&mut r.sink), 1);
        assert_eq!(recycled_buffers(), held);
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
    assert!(r.server.parked(r.session(), "sum").is_some());
}

/// A parked operand is looked up where its session holds it: a flush of
/// `Add`s whose second operand is parked allocates no more than one whose
/// operands are both inline, where resolving is a borrow.
#[test]
fn resolving_a_parked_operand_allocates_nothing() {
    let ctx = context();
    let mut r = rig(&ctx);
    let park = r.edited(|body| body.park_as = Some("x"));
    r.serve_batch(&park, 1);
    let reads_parked = r
        .edited(|body| body.operands[1] = WireOperand::Parked("x"))
        .repeat(BATCH);
    let inline = r.request.repeat(BATCH);
    for _ in 0..2 {
        r.serve_batch(&reads_parked, BATCH);
        r.serve_batch(&inline, BATCH);
    }
    let parked = r.flush_allocs(&reads_parked, BATCH);
    let both_inline = r.flush_allocs(&inline, BATCH);
    assert!(
        parked.count <= both_inline.count && parked.largest < 4096,
        "{BATCH} parked reads: {parked:?}; the same flush all inline: {both_inline:?}"
    );
}

/// Parking a result stores the ciphertext the request made, and a `Fetch`
/// returns the parked one as it lies: an `Add` that sums into its inline
/// first operand and parks the sum, then a `Fetch` of it, copy no
/// polynomial.
#[test]
fn parking_an_add_and_fetching_it_copy_no_polynomial() {
    let ctx = context();
    let mut r = rig(&ctx);
    let mut stream = r.edited(|body| body.park_as = Some("sum"));
    stream.extend(r.edited(|body| {
        body.op = OpCode::Fetch;
        body.operands = vec![WireOperand::Parked("sum")];
    }));
    r.serve_batch(&stream, 2);
    let seen = r.flush_allocs(&stream, 2);
    assert!(
        seen.largest < 4096,
        "parking an Add and fetching it made an allocation of {} B: {seen:?}",
        seen.largest
    );
    let sum = r.server.parked(r.session(), "sum").unwrap();
    assert_eq!(serialize_ciphertext(sum), r.sum);
}

/// A warm fan-out — four `Rotate`s of one seeded input, decoded once and
/// run as one hoisted group — takes its input and its outputs from the
/// recycler: nothing polynomial-sized is allocated, and the replies are
/// the first flush's, byte for byte.
#[test]
fn a_warm_fanout_rotate_allocates_nothing_polynomial_sized() {
    warm_fanout(false);
}

/// The same fan-out with every reply compressed to one residue: the group
/// is computed at that level, so no reply is cut down from a full-level
/// copy of its result.
#[test]
fn a_warm_compressed_fanout_allocates_nothing_polynomial_sized() {
    warm_fanout(true);
}

/// Serves a fan-out of four `Rotate`s five times and checks that the last
/// three flushes allocate nothing polynomial-sized.
fn warm_fanout(compress_reply: bool) {
    let ctx = context();
    let steps = [1i64, 2, 3, 4];
    let mut rng = StdRng::seed_from_u64(0xFA40);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let gks = GaloisKeys::generate(&ctx, &sk, &steps, &mut rng);
    let pt = CkksEncoder::new(&ctx)
        .encode_real(&[0.5, -1.0, 2.0], ctx.params().scale(), ctx.max_level())
        .unwrap();
    let input =
        serialize_seeded_ciphertext(&encrypt_symmetric_seeded(&ctx, &sk, &pt, &mut rng).unwrap());
    let mut server = HeaxServer::new(&ctx, Board::stratix10())
        .unwrap()
        .with_executor(Arc::new(Sequential));
    let opened = server.handle_frame(&client::open_session()).unwrap();
    let session = wire::decode_frame(&opened).unwrap().session;
    let keyed = server.handle_frame(&client::register_galois_keys(
        session,
        &serialize_galois_keys(&gks),
    ));
    assert!(matches!(
        client::parse_reply(&keyed.unwrap()),
        Ok((_, _, client::Reply::KeyRegistered))
    ));
    let fanout: Vec<Vec<u8>> = steps
        .iter()
        .zip(0..)
        .map(|(&step, id)| {
            let body = Request {
                op: OpCode::Rotate,
                step,
                compress_reply,
                park_as: None,
                operands: vec![WireOperand::Inline(&input)],
            };
            client::request(session, id, &body)
        })
        .collect();
    let serve = |server: &mut HeaxServer<'_>, sink: &mut WriteBuffer| {
        for frame in &fanout {
            assert!(server.handle_frame(frame).is_none());
        }
        assert_eq!(server.flush_into(sink), steps.len());
    };

    let mut first = WriteBuffer::default();
    serve(&mut server, &mut first);
    assert_eq!(server.stats().hoisted_groups, 1);
    assert_eq!(server.stats().decoded_operands, 1);
    let limbs = if compress_reply {
        1
    } else {
        ctx.max_level() + 1
    };
    let reply_len = wire::response_frame_len(serialized_ciphertext_bytes(ctx.n(), limbs, 2));
    assert_eq!(first.out.len(), steps.len() * reply_len);
    let mut sink = WriteBuffer::default();
    serve(&mut server, &mut sink);
    assert_eq!(sink.out, first.out);
    let seen = measure(|| {
        for _ in 0..3 {
            sink.out.clear();
            serve(&mut server, &mut sink);
        }
    });
    assert!(
        seen.largest < 4096,
        "a warm fan-out made an allocation of {} B: {seen:?}",
        seen.largest
    );
    assert_eq!(sink.out, first.out);
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
