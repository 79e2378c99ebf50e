//! `serve_mix_seta` and `serve_add_seta`: a `NetServer` on its own
//! thread, one generator thread, two pipelined loopback connections —
//! the TCP client's view. A saturation phase (closed loop) gives the
//! sustained rate and the server's CPU per request; an open phase
//! (Poisson arrivals at a fixed rate, latency from the due time) gives
//! the latency a client sees below saturation.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use heax_ckks::CkksContext;
use heax_hw::board::Board;
use heax_server::net::FrameAssembler;
use heax_server::wire::{self, client, MessageKind};
use heax_server::{HeaxServer, NetConfig, NetServer, NetStats, ServerStats};

use crate::gen::{self, Job, JobKind, JobMix, Stream};
use crate::harness::{sequential, sustained_rate, Epoch, Opts, Outcome, Phase, Timings};
use crate::probes;
use crate::proc::ThreadClock;
use crate::replay::{self, StageTable};
use crate::stats;
use crate::trace::{Span, Tracer};
use crate::traffic::{requests_of, Expect, Inputs, Sampled, Traffic};

/// Loopback connections, and so the generator's pipelines.
const CONNS: usize = 2;
/// A request unanswered this long has failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);
/// A job sent later than this after its due time counts as late.
const LATE_MS: f64 = 1.0;

/// Which serving workload, and its fixed shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Mix,
    Add,
}

struct Shape {
    sessions: usize,
    with_keys: bool,
    /// Jobs in flight per connection in the saturation phase.
    depth: usize,
    /// Most requests the open loop keeps unanswered on one connection:
    /// the saturation phase's depth, in requests. Without a window, the
    /// jobs that fall due while this sandbox freezes a thread for a few
    /// hundred ms go out in one burst, and 64 queued 128 KiB replies to
    /// one connection overflow the server's 8 MiB write buffer, which
    /// drops the connection. It also keeps the process's peak memory
    /// what the saturation phase sets, not what the longest freeze did.
    window: usize,
    /// Poisson job arrivals per second in the open phase.
    open_rate: f64,
    /// Open-phase latency limit, ms.
    slo_ms: f64,
    /// Jobs served before anything is measured.
    warm_up_jobs: usize,
}

impl Kind {
    fn shape(self) -> Shape {
        match self {
            Kind::Mix => Shape {
                sessions: 32,
                with_keys: true,
                depth: 2,
                window: 16,
                open_rate: 50.0,
                slo_ms: 50.0,
                warm_up_jobs: 32,
            },
            Kind::Add => Shape {
                sessions: 256,
                with_keys: false,
                depth: 8,
                window: 8,
                open_rate: 600.0,
                slo_ms: 25.0,
                warm_up_jobs: 256,
            },
        }
    }

    fn traffic(self, seed: u64) -> Traffic {
        let sessions = self.shape().sessions;
        match self {
            Kind::Mix => Traffic::Mix(JobMix::new(seed, sessions)),
            Kind::Add => Traffic::Add { sessions, next: 0 },
        }
    }
}

// ---------------------------------------------------------------------
// The server thread
// ---------------------------------------------------------------------

/// Generator → server signalling. In a traced run the generator bumps
/// `marks_wanted` at each end of the saturation window and waits for
/// the server to snapshot its counters there.
#[derive(Default)]
struct Control {
    marks_wanted: AtomicU32,
    marks_taken: AtomicU32,
    trace: AtomicBool,
    stop: AtomicBool,
}

/// The server's counters at one end of the saturation window.
struct Mark {
    net: NetStats,
    srv: ServerStats,
}

struct ServerReport {
    marks: Vec<Mark>,
    spans: Vec<Span>,
}

impl Control {
    /// Asks the server for a mark and waits until it is taken; returns
    /// the mark's index.
    fn mark(&self) -> usize {
        let wanted = self.marks_wanted.fetch_add(1, Ordering::SeqCst) + 1;
        let t0 = Instant::now();
        while self.marks_taken.load(Ordering::SeqCst) < wanted {
            assert!(
                t0.elapsed() < REPLY_TIMEOUT,
                "the server thread stopped answering"
            );
            std::thread::sleep(Duration::from_micros(50));
        }
        wanted as usize - 1
    }
}

/// Runs the event loop until told to stop: `poll(1)` in a loop, which
/// is all the harness adds around the product's `NetServer`.
fn serve(
    ctx: &CkksContext,
    ctl: &Control,
    addr: mpsc::Sender<(SocketAddr, ThreadClock)>,
    origin: Instant,
) -> io::Result<ServerReport> {
    let inner = HeaxServer::new(ctx, Board::stratix10())
        .map_err(io::Error::other)?
        .with_executor(sequential());
    let mut net = NetServer::bind("127.0.0.1:0", inner, NetConfig::default())?;
    addr.send((net.local_addr()?, ThreadClock::current()))
        .map_err(io::Error::other)?;
    let mut marks = Vec::new();
    let mut tr = Tracer::new(false, origin);
    while !ctl.stop.load(Ordering::SeqCst) {
        let wanted = ctl.marks_wanted.load(Ordering::SeqCst);
        while (marks.len() as u32) < wanted {
            marks.push(Mark {
                net: net.stats(),
                srv: net.server().stats(),
            });
            tr.set_on(ctl.trace.load(Ordering::SeqCst));
            ctl.marks_taken.store(marks.len() as u32, Ordering::SeqCst);
        }
        if tr.is_on() {
            let before = net.stats();
            let start = tr.now_ns();
            net.poll(1)?;
            let name = if net.stats() == before {
                "net.poll.idle"
            } else {
                "net.poll"
            };
            tr.record(name, start, tr.now_ns(), 0);
        } else {
            net.poll(1)?;
        }
    }
    Ok(ServerReport {
        marks,
        spans: tr.into_spans(),
    })
}

// ---------------------------------------------------------------------
// The client
// ---------------------------------------------------------------------

struct Conn {
    stream: TcpStream,
    asm: FrameAssembler,
    out: Vec<u8>,
    out_at: usize,
    wants_write: bool,
}

/// The generator's nonblocking connections and their readiness poller.
struct Client {
    conns: Vec<Conn>,
    poller: epoll::Poller,
    events: Vec<epoll::Event>,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Client> {
        let poller = epoll::Poller::new()?;
        let mut conns = Vec::with_capacity(CONNS);
        for token in 0..CONNS {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            poller.add(stream.as_raw_fd(), token as u64, epoll::READABLE)?;
            conns.push(Conn {
                stream,
                asm: FrameAssembler::new(),
                out: Vec::new(),
                out_at: 0,
                wants_write: false,
            });
        }
        Ok(Client {
            conns,
            poller,
            events: Vec::new(),
            buf: vec![0; 64 * 1024],
        })
    }

    fn queue(&mut self, conn: usize, bytes: &[u8]) {
        self.conns[conn].out.extend_from_slice(bytes);
    }

    /// Writes what the sockets take, reads what they hold, and appends
    /// every completed reply frame to `frames`.
    fn pump(&mut self, frames: &mut Vec<Vec<u8>>) -> io::Result<()> {
        for (token, conn) in self.conns.iter_mut().enumerate() {
            while conn.out_at < conn.out.len() {
                match conn.stream.write(&conn.out[conn.out_at..]) {
                    Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                    Ok(n) => conn.out_at += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            if conn.out_at == conn.out.len() {
                conn.out.clear();
                conn.out_at = 0;
            }
            let wants_write = !conn.out.is_empty();
            if wants_write != conn.wants_write {
                conn.wants_write = wants_write;
                let interest = epoll::READABLE | if wants_write { epoll::WRITABLE } else { 0 };
                self.poller
                    .modify(conn.stream.as_raw_fd(), token as u64, interest)?;
            }
            loop {
                match conn.stream.read(&mut self.buf) {
                    Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                    Ok(n) => conn.asm.push(&self.buf[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            while let Some(frame) = conn.asm.next_frame().map_err(io::Error::other)? {
                frames.push(frame);
            }
        }
        Ok(())
    }

    /// Sleeps until a socket is ready or `timeout` passes. Waits under a
    /// millisecond (the poller's resolution) return at once, so the
    /// caller spins up to a due time rather than oversleeping it.
    fn wait(&mut self, timeout: Duration) -> io::Result<()> {
        let ms = timeout.as_millis().min(50) as i32;
        if ms > 0 {
            self.poller.wait(&mut self.events, ms)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// The generator
// ---------------------------------------------------------------------

struct InFlight {
    /// When the request was due (open loop) or sent (closed loop).
    due: Instant,
    sent_ns: u64,
    kind: JobKind,
    job: u64,
    expect: Expect,
}

/// One answered request.
struct Record {
    /// The slice of the phase it was sent in.
    slice: usize,
    latency_ms: f64,
    kind: JobKind,
}

/// Everything one phase measured, over all of its slices.
#[derive(Default)]
struct PhaseLog {
    name: &'static str,
    /// One per slice: the verified replies that arrived inside its
    /// window, its seconds, and the server thread's CPU over it.
    epochs: Vec<Epoch>,
    records: Vec<Record>,
    sent: u64,
    failed: u64,
    /// Send time minus due time of each open-loop job, ms.
    lateness_ms: Vec<f64>,
    /// Requests still unanswered when a slice's window closed.
    backlog_end: usize,
}

impl PhaseLog {
    fn named(name: &'static str) -> Self {
        PhaseLog {
            name,
            ..PhaseLog::default()
        }
    }

    fn phase(&self) -> Phase {
        Phase {
            name: self.name,
            sent: self.sent,
            succeeded: self.sent - self.failed.min(self.sent),
            failed: self.failed.min(self.sent),
        }
    }

    fn latencies(&self, kind: Option<JobKind>) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| kind.is_none_or(|k| r.kind == k))
            .map(|r| r.latency_ms)
            .collect()
    }

    /// Latencies of every verified reply, grouped by slice.
    fn latencies_by_slice(&self) -> Vec<Vec<f64>> {
        let mut out = vec![Vec::new(); self.epochs.len()];
        for r in &self.records {
            out[r.slice].push(r.latency_ms);
        }
        out
    }
}

#[derive(Clone, Copy)]
enum Limit {
    Seconds(f64),
    Jobs(usize),
}

struct Generator<'a> {
    client: Client,
    inputs: &'a Inputs,
    /// Session ids; session `i` lives on connection `i % CONNS`.
    sessions: Vec<u64>,
    traffic: Traffic,
    sample: rand::rngs::StdRng,
    inflight: HashMap<u64, InFlight>,
    /// Per job still in flight: its connection and unanswered requests.
    jobs: HashMap<u64, (usize, usize)>,
    next_request: u64,
    next_job: u64,
    sampled: Vec<Sampled>,
    frames: Vec<Vec<u8>>,
    tr: Tracer,
    /// The server thread's CPU clock.
    server: ThreadClock,
}

impl<'a> Generator<'a> {
    /// Requests sent on `conn` and not yet answered.
    fn unanswered_on(&self, conn: usize) -> usize {
        self.jobs
            .values()
            .filter(|j| j.0 == conn)
            .map(|j| j.1)
            .sum()
    }

    /// Sends one job's requests back to back on its session's
    /// connection.
    fn issue(&mut self, job: Job, due: Instant, log: &mut PhaseLog) {
        let conn = job.session % CONNS;
        let session = self.sessions[job.session];
        let job_id = self.next_job;
        self.next_job += 1;
        let requests = requests_of(&job, self.inputs, &mut self.sample);
        self.jobs.insert(job_id, (conn, requests.len()));
        for (request, expect) in requests {
            let id = self.next_request;
            self.next_request += 1;
            self.tr.open("client.encode_request", id);
            let frame = client::request(session, id, &request);
            self.tr.close();
            self.client.queue(conn, &frame);
            self.inflight.insert(
                id,
                InFlight {
                    due,
                    sent_ns: self.tr.now_ns(),
                    kind: job.kind,
                    job: job_id,
                    expect,
                },
            );
            log.sent += 1;
        }
    }

    /// One loop turn: move bytes, account every reply that arrived.
    fn turn(&mut self, log: &mut PhaseLog) -> io::Result<()> {
        let mut frames = std::mem::take(&mut self.frames);
        self.client.pump(&mut frames)?;
        for frame in frames.drain(..) {
            let now = Instant::now();
            self.tr.open("client.parse_reply", 0);
            let decoded = wire::decode_frame(&frame);
            let body = match &decoded {
                Ok(f) if f.kind == MessageKind::Response => wire::decode_reply(f.payload).ok(),
                _ => None,
            };
            self.tr.close();
            let Some(flight) = decoded
                .as_ref()
                .ok()
                .and_then(|f| self.inflight.remove(&f.request))
            else {
                log.failed += 1;
                continue;
            };
            let id = decoded.as_ref().map_or(0, |f| f.request);
            match body
                .ok_or(())
                .and_then(|b| flight.expect.check(&b, self.inputs))
            {
                Ok(kept) => {
                    self.sampled.extend(kept);
                    log.records.push(Record {
                        slice: log.epochs.len(),
                        latency_ms: now.duration_since(flight.due).as_secs_f64() * 1e3,
                        kind: flight.kind,
                    });
                }
                Err(()) => log.failed += 1,
            }
            self.tr
                .record("client.request", flight.sent_ns, self.tr.now_ns(), id);
            if let Some(entry) = self.jobs.get_mut(&flight.job) {
                entry.1 -= 1;
                if entry.1 == 0 {
                    self.jobs.remove(&flight.job);
                }
            }
        }
        self.frames = frames;
        Ok(())
    }

    /// Ends a slice: waits out the replies still owed, decrypt-checks
    /// the kept samples and records the slice's `epoch`. Whatever is
    /// unanswered after [`REPLY_TIMEOUT`] failed.
    fn finish(&mut self, log: &mut PhaseLog, epoch: Epoch) -> io::Result<()> {
        log.backlog_end += self.inflight.len();
        let t0 = Instant::now();
        while !self.inflight.is_empty() && t0.elapsed() < REPLY_TIMEOUT {
            self.client.wait(Duration::from_millis(2))?;
            self.turn(log)?;
        }
        log.failed += self.inflight.len() as u64;
        self.inflight.clear();
        self.jobs.clear();
        let inputs = self.inputs;
        log.failed += self.sampled.drain(..).filter(|s| !s.verify(inputs)).count() as u64;
        log.epochs.push(epoch);
        Ok(())
    }

    /// What the slice that began at `start` with `done0` records and
    /// the server at `cpu0` did inside its window.
    fn epoch(&self, log: &PhaseLog, start: Instant, done0: usize, cpu0: f64) -> Epoch {
        Epoch {
            done: log.records.len() - done0,
            wall_s: start.elapsed().as_secs_f64(),
            cpu_s: self.server.cpu_s() - cpu0,
        }
    }

    /// One slice of a closed loop: `depth` jobs in flight on each
    /// connection, the next sent the moment one completes.
    fn closed_loop(&mut self, log: &mut PhaseLog, depth: usize, limit: Limit) -> io::Result<()> {
        let start = Instant::now();
        let (done0, cpu0) = (log.records.len(), self.server.cpu_s());
        let mut issued = 0;
        loop {
            let now = Instant::now();
            let open = match limit {
                Limit::Seconds(s) => now.duration_since(start).as_secs_f64() < s,
                Limit::Jobs(n) => issued < n,
            };
            if !open {
                break;
            }
            for conn in 0..CONNS {
                while self.jobs.values().filter(|j| j.0 == conn).count() < depth {
                    // Move the job to a session of this connection.
                    let mut job = self.traffic.next_job();
                    job.session = job.session / CONNS * CONNS + conn;
                    self.issue(job, now, log);
                    issued += 1;
                }
            }
            self.turn(log)?;
            self.client.wait(Duration::from_millis(5))?;
            self.turn(log)?;
        }
        let epoch = self.epoch(log, start, done0, cpu0);
        self.finish(log, epoch)
    }

    /// One slice of an open loop: jobs sent at their scheduled offsets
    /// whatever the server's state, each request's latency counted from
    /// the due time.
    fn open_loop(
        &mut self,
        log: &mut PhaseLog,
        offsets: &[f64],
        seconds: f64,
        window: usize,
    ) -> io::Result<()> {
        let start = Instant::now();
        let (done0, cpu0) = (log.records.len(), self.server.cpu_s());
        let mut next = 0;
        let mut held: Option<Job> = None;
        loop {
            let elapsed = start.elapsed().as_secs_f64();
            if elapsed >= seconds {
                break;
            }
            while next < offsets.len() && offsets[next] <= elapsed {
                let job = held.take().unwrap_or_else(|| self.traffic.next_job());
                // A due job waits here (its latency still counted from the
                // due time) while its connection carries a full window.
                if self.unanswered_on(job.session % CONNS) + job.kind.requests() > window {
                    held = Some(job);
                    break;
                }
                let due = start + Duration::from_secs_f64(offsets[next]);
                log.lateness_ms
                    .push((start.elapsed().as_secs_f64() - offsets[next]) * 1e3);
                self.issue(job, due, log);
                next += 1;
            }
            self.turn(log)?;
            let until = offsets.get(next).copied().unwrap_or(seconds).min(seconds);
            let gap = (until - start.elapsed().as_secs_f64()).max(0.0);
            self.client.wait(Duration::from_secs_f64(gap))?;
        }
        let epoch = self.epoch(log, start, done0, cpu0);
        self.finish(log, epoch)
    }
}

/// Opens the sessions and registers every session's keys over the wire.
fn open_sessions(client: &mut Client, inputs: &Inputs, shape: &Shape) -> io::Result<Vec<u64>> {
    // Replies come back in order per connection, so a per-connection
    // count of expected replies is all the bookkeeping set-up needs.
    fn exchange(client: &mut Client, expect: usize, kind: MessageKind) -> io::Result<Vec<u64>> {
        let mut frames = Vec::new();
        let mut sessions = Vec::with_capacity(expect);
        let t0 = Instant::now();
        while sessions.len() < expect {
            client.pump(&mut frames)?;
            for frame in frames.drain(..) {
                let f = wire::decode_frame(&frame).map_err(io::Error::other)?;
                if f.kind != kind {
                    return Err(io::Error::other(format!("set-up got {:?}", f.kind)));
                }
                sessions.push(f.session);
            }
            if t0.elapsed() > REPLY_TIMEOUT {
                return Err(io::ErrorKind::TimedOut.into());
            }
            client.wait(Duration::from_millis(2))?;
        }
        Ok(sessions)
    }

    let mut sessions = Vec::with_capacity(shape.sessions);
    // One at a time, so session `i` provably lives on connection
    // `i % CONNS` whatever order the server assigns ids in.
    for i in 0..shape.sessions {
        client.queue(i % CONNS, &client::open_session());
        sessions.extend(exchange(client, 1, MessageKind::SessionOpened)?);
    }
    if shape.with_keys {
        for (i, &session) in sessions.iter().enumerate() {
            client.queue(
                i % CONNS,
                &client::register_relin_key(session, &inputs.relin_bytes),
            );
            client.queue(
                i % CONNS,
                &client::register_galois_keys(session, &inputs.galois_bytes),
            );
            exchange(client, 2, MessageKind::KeyRegistered)?;
        }
    }
    Ok(sessions)
}

// ---------------------------------------------------------------------
// Putting a run together
// ---------------------------------------------------------------------

/// What one full run (after its last set-up) measured.
struct Measured {
    sat_plain: Option<PhaseLog>,
    sat: PhaseLog,
    open: PhaseLog,
    /// The server's marks at the ends of `sat` (traced runs).
    sat_marks: Option<(usize, usize)>,
    client_spans: Vec<Span>,
}

fn measure(
    gen: &mut Generator<'_>,
    ctl: &Control,
    kind: Kind,
    opts: &Opts,
) -> io::Result<Measured> {
    let shape = kind.shape();
    let (mut sat, mut open) = (PhaseLog::named("sat"), PhaseLog::named("open"));
    let (sat_plain, sat_marks) = if opts.trace {
        // A plain and a traced saturation window to price the tracing,
        // then a traced open window: a quarter of the length in all.
        let mut plain = PhaseLog::named("sat-untraced");
        let window = Limit::Seconds(opts.seconds * 0.05);
        gen.closed_loop(&mut plain, shape.depth, window)?;
        ctl.trace.store(true, Ordering::SeqCst);
        gen.tr.set_on(true);
        let from = ctl.mark();
        gen.closed_loop(&mut sat, shape.depth, window)?;
        let to = ctl.mark();
        let open_s = opts.seconds * 0.15;
        let offsets = gen::poisson_offsets(opts.seed, shape.open_rate, open_s);
        gen.open_loop(&mut open, &offsets, open_s, shape.window)?;
        (Some(plain), Some((from, to)))
    } else {
        // 40% saturation, 60% open, in alternating slices, so that both
        // phases sample the whole run: the host's disturbed stretches
        // last seconds, and a contiguous phase can fall wholly inside
        // one. Each slice is one epoch of its phase.
        let slices = stats::EPOCHS as f64;
        let (sat_s, open_s) = (opts.seconds * 0.4 / slices, opts.seconds * 0.6 / slices);
        for slice in 0..stats::EPOCHS {
            gen.closed_loop(&mut sat, shape.depth, Limit::Seconds(sat_s))?;
            // Each slice draws its own arrivals from the run's seed.
            let seed = opts.seed.wrapping_add(slice as u64);
            let offsets = gen::poisson_offsets(seed, shape.open_rate, open_s);
            gen.open_loop(&mut open, &offsets, open_s, shape.window)?;
        }
        (None, None)
    };
    Ok(Measured {
        sat_plain,
        sat,
        open,
        sat_marks,
        client_spans: std::mem::replace(&mut gen.tr, Tracer::new(false, Instant::now()))
            .into_spans(),
    })
}

/// One set-up (keys, inputs, server, sessions, key registration,
/// warm-up), timed; `then` runs on the warm rig before it is torn down.
fn with_rig<T>(
    kind: Kind,
    opts: &Opts,
    origin: Instant,
    then: impl FnOnce(&mut Generator<'_>, &Control) -> io::Result<T>,
) -> io::Result<(f64, T, ServerReport, Inputs)> {
    let shape = kind.shape();
    let t0 = Instant::now();
    let inputs = Inputs::new(opts.seed);
    let ctl = Control::default();
    let (setup_s, value, report) = std::thread::scope(|scope| {
        let (addr_tx, addr_rx) = mpsc::channel();
        let ctx = &inputs.keys.ctx;
        let ctl = &ctl;
        let server = scope.spawn(move || serve(ctx, ctl, addr_tx, origin));
        let body = (|| {
            let (addr, server) = addr_rx
                .recv_timeout(REPLY_TIMEOUT)
                .map_err(io::Error::other)?;
            let mut client = Client::connect(addr)?;
            let sessions = open_sessions(&mut client, &inputs, &shape)?;
            let mut gen = Generator {
                client,
                inputs: &inputs,
                sessions,
                traffic: kind.traffic(opts.seed),
                sample: gen::rng(opts.seed, Stream::Sample),
                inflight: HashMap::new(),
                jobs: HashMap::new(),
                next_request: 1,
                next_job: 1,
                sampled: Vec::new(),
                frames: Vec::new(),
                tr: Tracer::new(false, origin),
                server,
            };
            let mut warm = PhaseLog::named("warm-up");
            gen.closed_loop(&mut warm, shape.depth, Limit::Jobs(shape.warm_up_jobs))?;
            if warm.failed > 0 {
                return Err(io::Error::other("warm-up requests failed"));
            }
            let setup_s = t0.elapsed().as_secs_f64();
            Ok((setup_s, then(&mut gen, ctl)?))
        })();
        ctl.stop.store(true, Ordering::SeqCst);
        let report = server
            .join()
            .map_err(|_| io::Error::other("the server thread panicked"))??;
        let (setup_s, value) = body?;
        io::Result::Ok((setup_s, value, report))
    })?;
    Ok((setup_s, value, report, inputs))
}

pub fn run(kind: Kind, opts: &Opts, origin: Instant) -> io::Result<Outcome> {
    let reps = opts.setup_reps(3);
    let mut setups = Vec::with_capacity(reps);
    for _ in 1..reps {
        setups.push(with_rig(kind, opts, origin, |_, _| Ok(()))?.0);
    }
    let (setup_s, m, server, inputs) =
        with_rig(kind, opts, origin, |gen, ctl| measure(gen, ctl, kind, opts))?;
    setups.push(setup_s);

    let mut out = Outcome::default();
    // Throughput and server CPU per request from the saturation windows;
    // latencies from every reply of the open ones.
    Timings {
        epochs: m.sat.epochs.clone(),
        latencies_ms: m.open.latencies_by_slice(),
    }
    .report(&mut out);
    if let Some((from, to)) = m.sat_marks {
        let table = replay::run(kind, &inputs, opts.seed, origin, &mut out);
        layer_metrics(
            kind,
            &m,
            &server.marks[from],
            &server.marks[to],
            &table,
            &mut out,
        );
        // The layers under this workload's requests.
        match kind {
            Kind::Mix => {
                probes::keygen(opts.seed, &mut out.metrics);
                probes::accel_and_parking(&inputs, &mut out.metrics);
            }
            Kind::Add => probes::codec(&inputs, &mut out.metrics),
        }
        out.spans.extend(m.client_spans);
        out.spans.extend(server.spans);
    } else {
        out.report_setup(&setups);
    }
    out.phases.extend(
        m.sat_plain
            .iter()
            .chain([&m.sat, &m.open])
            .map(PhaseLog::phase),
    );
    Ok(out)
}

/// The `net.*`, `serve.*`, `gen.*` and `trace.*` metrics of a traced
/// run, and the live server's batching counters.
fn layer_metrics(
    kind: Kind,
    m: &Measured,
    from: &Mark,
    to: &Mark,
    table: &StageTable,
    out: &mut Outcome,
) {
    let shape = kind.shape();
    let delta = |f: fn(&NetStats) -> u64| f(&to.net).saturating_sub(f(&from.net)) as f64;
    let served = delta(|n| n.replies_routed).max(1.0);
    // The window's time and the server thread's CPU over it are the
    // generator's record of the same (single, in a traced run) slice.
    let window = m.sat.epochs[0];
    let cpu_us_per_req = window.cpu_s * 1e6 / served;
    let set = &mut out.metrics;
    set.set(
        "net.poll_busy_ratio",
        window.cpu_s / window.wall_s.max(1e-9),
    );
    set.set("net.poll_us_per_req", cpu_us_per_req);
    set.set("net.reqs_per_flush", served / delta(|n| n.flushes).max(1.0));
    set.set("net.bytes_in_per_req", delta(|n| n.bytes_in) / served);
    set.set("net.bytes_out_per_req", delta(|n| n.bytes_out) / served);
    set.set(
        "net.partial_reads_per_req",
        delta(|n| n.partial_frame_reads) / served,
    );
    set.set(
        "net.short_writes_per_req",
        delta(|n| n.short_writes) / served,
    );
    set.set("net.admission_sheds", to.net.admission_sheds as f64);
    set.set("net.key_evictions", to.net.key_evictions as f64);
    set.set("net.key_restores", to.net.key_restores as f64);

    let sat = m.sat.latencies(None);
    let (p50, p99) = (stats::median(&sat), stats::percentile(&sat, 99.0));
    set.set("net.sat_p50_ms", p50);
    set.set("net.sat_p99_ms", p99);
    set.set(
        "net.sat_tail_ratio",
        if p50 > 0.0 { p99 / p50 } else { 0.0 },
    );

    // What the staged replay accounts for, weighted by the request
    // classes this window actually served; the rest of the server
    // thread's time is the socket and event-loop share.
    let mut counts: BTreeMap<JobKind, f64> = BTreeMap::new();
    for r in &m.sat.records {
        *counts.entry(r.kind).or_default() += 1.0;
    }
    let total: f64 = counts.values().sum::<f64>().max(1.0);
    let staged_us: f64 = counts
        .iter()
        .map(|(&k, &n)| n / total * table.server_side_us(k))
        .sum();
    set.set("net.residual_us_per_req", cpu_us_per_req - staged_us);
    set.set(
        "trace.coverage",
        if cpu_us_per_req > 0.0 {
            staged_us / cpu_us_per_req
        } else {
            0.0
        },
    );
    if let Some(plain) = &m.sat_plain {
        let base = sustained_rate(&plain.epochs);
        if base > 0.0 {
            set.set("trace.overhead_ratio", sustained_rate(&m.sat.epochs) / base);
        }
    }

    for (name50, name99, k) in [
        (
            "serve.fanout.p50_ms",
            "serve.fanout.p99_ms",
            JobKind::Fanout,
        ),
        (
            "serve.single.p50_ms",
            "serve.single.p99_ms",
            JobKind::Single,
        ),
        ("serve.chain.p50_ms", "serve.chain.p99_ms", JobKind::Chain),
    ] {
        // serve_add_seta's one class reports as `single`.
        let k = if kind == Kind::Add && k == JobKind::Single {
            JobKind::Add
        } else {
            k
        };
        let lat = m.open.latencies(Some(k));
        if lat.is_empty() {
            continue;
        }
        set.set(name50, stats::median(&lat));
        set.set(name99, stats::percentile(&lat, 99.0));
    }

    let late = m.open.lateness_ms.iter().filter(|&&l| l > LATE_MS).count() as f64;
    let open_sent = m.open.sent.max(1) as f64;
    let within = m
        .open
        .records
        .iter()
        .filter(|r| r.latency_ms <= shape.slo_ms)
        .count() as f64;
    set.set(
        "gen.late_ratio",
        late / m.open.lateness_ms.len().max(1) as f64,
    );
    set.set(
        "gen.lateness_p99_ms",
        stats::percentile(&m.open.lateness_ms, 99.0),
    );
    set.set("gen.backlog_end", m.open.backlog_end as f64);
    set.set("gen.slo_miss_ratio", 1.0 - within / open_sent);

    let srv = |f: fn(&ServerStats) -> u64| f(&to.srv).saturating_sub(f(&from.srv)) as f64;
    let rotations = to
        .srv
        .op(wire::OpCode::Rotate)
        .requests
        .saturating_sub(from.srv.op(wire::OpCode::Rotate).requests) as f64;
    let busy_us = |s: &ServerStats| s.per_op.iter().map(|(_, op)| op.busy_us).sum::<f64>();
    set.set(
        "server.op_busy_us_per_req",
        (busy_us(&to.srv) - busy_us(&from.srv)) / served,
    );
    set.set(
        "server.batch_occupancy",
        srv(|s| s.batched_requests) / srv(|s| s.batches).max(1.0),
    );
    set.set("server.hoisted_groups", srv(|s| s.hoisted_groups));
    set.set(
        "server.fused_ratio",
        srv(|s| s.hoisted_rotations) / rotations.max(1.0),
    );
}
