//! The load generator's client: one thread and one TCP connection per
//! workstation, running the repository's workload generator through the
//! sans-io [`ClientCore`] in a closed loop with zero think time.
//!
//! Unlike `ccdb load`, the thread reads its own socket through a
//! [`FrameReader`] (no reader thread), and a restarted transaction backs
//! off for an exponential delay whose mean is the client's running mean
//! response time — the simulator's restart policy — while it keeps
//! answering server messages. Every shipped page image is verified
//! byte-for-byte. With spans on, every call into a layer is timed.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use ccdb_des::Pcg32;
use ccdb_lock::ClientId;
use ccdb_model::{table5_database, PageId, SystemParams, TxnParams, TxnSpec, Workload};
use ccdb_proto::{
    AbortKind, Action, Algorithm, ClientCore, CommitAction, OpId, ReplyKind, ServerCore, Tuning,
    C2S, S2C,
};
use ccdb_server::{encode_frame, encode_frame_with_payload, Frame, FrameReader};
use ccdb_storage::{page_image, verify_page_image, ClientCache};

use crate::spans::{Open, Spans};
use crate::spec::LiveSpec;

/// Span layers of the load generator; index 0 is the per-transaction root.
pub const SPAN_NAMES: &[&str] = &[
    "txn", "proto", "encode", "decode", "image", "write", "wait", "backoff",
];
const TXN: usize = 0;

/// The metric key of span layer `i`: the root span's self time is the
/// driver's own bookkeeping outside every layer, reported as `other`.
pub fn layer_key(i: usize) -> &'static str {
    if i == TXN {
        "other"
    } else {
        SPAN_NAMES[i]
    }
}
const PROTO: usize = 1;
const ENCODE: usize = 2;
const DECODE: usize = 3;
const IMAGE: usize = 4;
const WRITE: usize = 5;
const WAIT: usize = 6;
const BACKOFF: usize = 7;

/// What one client thread measured.
pub struct ClientResult {
    /// Transactions committed locally (callback locking on retained
    /// locks, nothing written): no server message, so no server commit.
    pub local_commits: u64,
    /// Transactions committed, warm-up included.
    pub total_commits: u64,
    /// Aborted attempts in the measured phase.
    pub aborts: u64,
    /// Page images verified byte-for-byte.
    pub verified: u64,
    /// Frames sent plus frames received in the measured phase.
    pub msgs: u64,
    /// Bytes sent plus bytes received in the measured phase.
    pub bytes: u64,
    /// Request/reply exchanges in the measured phase.
    pub round_trips: u64,
    /// Client-cache hits and misses in the measured phase.
    pub cache_hits: u64,
    /// See `cache_hits`.
    pub cache_misses: u64,
    /// Measured transactions: (commit instant in s since the origin,
    /// response time in ms from first attempt to commit).
    pub txns: Vec<(f64, f64)>,
    /// When the measured phase started, s since the origin.
    pub measured_start: f64,
    /// Measured-phase spans (empty unless traced).
    pub spans: Spans,
}

/// Coordination points shared by the client threads of one rep.
pub struct Phases<'a> {
    /// Passed once every client has its `HelloAck`.
    pub connected: &'a std::sync::Barrier,
    /// Clients that finished their warm-up.
    pub warmed: &'a AtomicU32,
    /// Clients that finished their measured transactions.
    pub done: &'a AtomicU32,
    /// Records each client's `HelloAck` instant (s since the origin).
    pub hello_at: &'a std::sync::Mutex<Vec<f64>>,
}

/// A blocking receive that waits this long has stalled: the rep fails
/// instead of hanging.
const STALL: Duration = Duration::from_secs(30);

/// Longest sleep between polls of a deadline wait.
const POLL: Duration = Duration::from_micros(50);

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

struct Wire {
    sock: TcpStream,
    reader: FrameReader,
    buf: Vec<u8>,
    page_size: u32,
    nonblocking: bool,
    msgs: u64,
    bytes: u64,
}

impl Wire {
    fn new(sock: TcpStream) -> Wire {
        Wire {
            sock,
            reader: FrameReader::new(),
            buf: vec![0; 64 * 1024],
            page_size: 0,
            nonblocking: false,
            msgs: 0,
            bytes: 0,
        }
    }

    fn set_nonblocking(&mut self, on: bool) -> io::Result<()> {
        if self.nonblocking != on {
            self.sock.set_nonblocking(on)?;
            self.nonblocking = on;
        }
        Ok(())
    }

    /// Send a whole frame. The socket is blocking while it writes: a
    /// deadline wait leaves it nonblocking, and a frame larger than the
    /// free send buffer would then fail with `WouldBlock`.
    fn write(&mut self, sp: &mut Spans, bytes: &[u8]) -> io::Result<()> {
        self.set_nonblocking(false)?;
        let w = sp.open(WRITE);
        let r = self.sock.write_all(bytes);
        sp.close(w);
        self.msgs += 1;
        self.bytes += bytes.len() as u64;
        r
    }

    fn buffered_frame(&mut self, sp: &mut Spans) -> io::Result<Option<(Frame, Vec<u8>)>> {
        let d = sp.open(DECODE);
        let r = self.reader.next_frame(self.page_size);
        sp.close(d);
        let frame = r.map_err(|e| invalid(e.to_string()))?;
        if frame.is_some() {
            self.msgs += 1;
        }
        Ok(frame)
    }

    /// Read once, waiting at most until `deadline`; without a deadline,
    /// at most [`STALL`]. Returns false if the deadline passed first.
    ///
    /// Socket timeouts tick in scheduler jiffies, far coarser than the
    /// sub-millisecond back-offs of this client, so a deadline wait polls the socket
    /// nonblocking between sleeps of at most [`POLL`].
    fn fill(&mut self, sp: &mut Spans, deadline: Option<Instant>) -> io::Result<bool> {
        self.set_nonblocking(deadline.is_some())?;
        // Waiting for a needed reply is `wait`; a deadline wait is a
        // back-off or idle period by policy and stays in its parent span.
        let w = deadline.is_none().then(|| sp.open(WAIT));
        let r = loop {
            match (self.sock.read(&mut self.buf), deadline) {
                (Err(e), Some(d)) if e.kind() == io::ErrorKind::WouldBlock => {
                    let left = d.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        break Ok(None);
                    }
                    std::thread::sleep(left.min(POLL));
                }
                (Ok(n), _) => break Ok(Some(n)),
                (Err(e), _) => break Err(e),
            }
        };
        if let Some(w) = w {
            sp.close(w);
        }
        match r {
            Ok(None) => Ok(false),
            Ok(Some(0)) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            Ok(Some(n)) => {
                self.reader.push(&self.buf[..n]);
                self.bytes += n as u64;
                Ok(true)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("no message from the server for {STALL:?}"),
                ))
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(true),
            Err(e) => Err(e),
        }
    }

    /// The next frame, blocking until one arrives or `deadline` passes.
    fn recv(
        &mut self,
        sp: &mut Spans,
        deadline: Option<Instant>,
    ) -> io::Result<Option<(Frame, Vec<u8>)>> {
        loop {
            if let Some(f) = self.buffered_frame(sp)? {
                return Ok(Some(f));
            }
            if !self.fill(sp, deadline)? {
                return Ok(None);
            }
        }
    }
}

struct Client {
    core: ClientCore,
    cache: ClientCache,
    wire: Wire,
    rng: Pcg32,
    sp: Spans,
    resp_sum: f64,
    resp_n: u64,
    local_commits: u64,
    aborts: u64,
    verified: u64,
    round_trips: u64,
}

impl Client {
    fn proto<T>(&mut self, f: impl FnOnce(&mut ClientCore, &mut ClientCache) -> T) -> T {
        let p = self.sp.open(PROTO);
        let r = f(&mut self.core, &mut self.cache);
        self.sp.close(p);
        r
    }

    fn send(&mut self, msg: C2S) -> io::Result<()> {
        let ps = self.wire.page_size;
        let payload = match &msg {
            C2S::Commit { txn, dirty, .. } => {
                // Commits ship their dirty pages' images at the commit
                // version; every other client message is payload-free.
                let i = self.sp.open(IMAGE);
                let version = ServerCore::commit_version(*txn);
                let mut payload = Vec::with_capacity(dirty.len() * ps as usize);
                for p in dirty {
                    payload.extend_from_slice(&page_image(*p, version, ps as usize));
                }
                self.sp.close(i);
                payload
            }
            _ => Vec::new(),
        };
        let e = self.sp.open(ENCODE);
        let frame = encode_frame_with_payload(&Frame::C2S(msg), ps, &payload);
        self.sp.close(e);
        let frame = frame.map_err(|e| invalid(e.to_string()))?;
        self.wire.write(&mut self.sp, &frame)
    }

    fn send_all(&mut self, msgs: Vec<C2S>) -> io::Result<()> {
        msgs.into_iter().try_for_each(|m| self.send(m))
    }

    fn verify(&mut self, page: PageId, version: u64, bytes: &[u8], what: &str) -> io::Result<()> {
        let i = self.sp.open(IMAGE);
        let ok = verify_page_image(page, version, bytes);
        self.sp.close(i);
        if !ok {
            return Err(invalid(format!(
                "{what} payload for page {}:{} v{version} does not match its image",
                page.class.0, page.atom
            )));
        }
        self.verified += 1;
        Ok(())
    }

    /// Service an asynchronous server message and send the answers.
    fn handle_async(&mut self, msg: S2C, payload: &[u8]) -> io::Result<()> {
        if let S2C::Update { pages, version } = &msg {
            let ps = self.wire.page_size as usize;
            for (i, page) in pages.iter().enumerate() {
                let img = payload.get(i * ps..(i + 1) * ps).unwrap_or(&[]);
                self.verify(*page, *version, img, "Update")?;
            }
        }
        let out = self.proto(|core, cache| core.handle_async(cache, msg));
        self.send_all(out.sends)
    }

    /// Handle one inbound frame: the reply to `want` is returned, anything
    /// else (including a late reply to an aborted attempt's op) is
    /// serviced as an asynchronous message.
    fn handle_frame(
        &mut self,
        frame: Frame,
        payload: &[u8],
        want: Option<OpId>,
    ) -> io::Result<Option<ReplyKind>> {
        match frame {
            Frame::S2C(S2C::Reply { op, kind }) if Some(op) == want => Ok(Some(kind)),
            Frame::S2C(msg) => self.handle_async(msg, payload).map(|()| None),
            other => Err(invalid(format!("unexpected frame {other:?}"))),
        }
    }

    /// Block until the reply to `op` arrives, servicing what lands first.
    fn await_reply(&mut self, op: OpId) -> io::Result<(ReplyKind, Vec<u8>)> {
        self.round_trips += 1;
        loop {
            let (frame, payload) = self
                .wire
                .recv(&mut self.sp, None)?
                .expect("a blocking receive always yields a frame");
            if let Some(kind) = self.handle_frame(frame, &payload, Some(op))? {
                return Ok((kind, payload));
            }
        }
    }

    /// Service server messages until `deadline`.
    fn service_until(&mut self, deadline: Instant) -> io::Result<()> {
        while let Some((frame, payload)) = self.wire.recv(&mut self.sp, Some(deadline))? {
            self.handle_frame(frame, &payload, None)?;
        }
        Ok(())
    }

    /// Count this client into `counter`, then service server messages
    /// until all `clients` have counted in.
    fn wait_for(&mut self, counter: &AtomicU32, clients: u32) -> io::Result<()> {
        counter.fetch_add(1, Ordering::SeqCst);
        while counter.load(Ordering::SeqCst) < clients {
            self.service_until(Instant::now() + Duration::from_millis(1))?;
        }
        Ok(())
    }

    fn read_page(&mut self, page: PageId) -> io::Result<Result<(), AbortKind>> {
        match self.proto(|core, cache| core.read_step(cache, page)) {
            Action::Local { .. } => Ok(Ok(())),
            Action::Async(msg) => self.send(msg).map(Ok),
            Action::Sync(sop) => {
                self.send(sop.msg)?;
                let (kind, payload) = self.await_reply(sop.op)?;
                if let ReplyKind::PageData { version } = kind {
                    self.verify(page, version, &payload, "PageData")?;
                }
                match self.proto(|core, cache| core.apply_read_reply(cache, sop.kind, page, kind)) {
                    Ok(sends) => self.send_all(sends).map(Ok),
                    Err(k) => Ok(Err(k)),
                }
            }
        }
    }

    fn write_page(&mut self, page: PageId) -> io::Result<Result<(), AbortKind>> {
        match self.proto(|core, cache| core.write_step(cache, page)) {
            Action::Local { .. } => Ok(Ok(())),
            Action::Async(msg) => self.send(msg).map(Ok),
            Action::Sync(sop) => {
                self.send(sop.msg)?;
                let (kind, payload) = self.await_reply(sop.op)?;
                if let ReplyKind::PageData { version } = kind {
                    self.verify(page, version, &payload, "PageData")?;
                }
                match self.proto(|core, cache| core.apply_write_reply(cache, page, kind)) {
                    Ok(sends) => self.send_all(sends).map(Ok),
                    Err(k) => Ok(Err(k)),
                }
            }
        }
    }

    /// Commit; `Ok(Ok(true))` is a local commit (no server message).
    fn commit(&mut self) -> io::Result<Result<bool, AbortKind>> {
        match self.proto(|core, cache| core.commit_step(cache)) {
            CommitAction::Local => Ok(Ok(true)),
            CommitAction::Send { op, dirty, msg } => {
                self.send(msg)?;
                let (kind, _) = self.await_reply(op)?;
                let r = self.proto(|core, cache| core.apply_commit_reply(cache, &dirty, kind));
                Ok(r.map(|_version| false))
            }
        }
    }

    /// One attempt of the paper's Figure-3 transaction shape.
    fn execute(&mut self, spec: &TxnSpec) -> io::Result<Result<bool, AbortKind>> {
        for op in &spec.ops {
            for &page in &op.pages {
                if let Err(k) = self.read_page(page)? {
                    return Ok(Err(k));
                }
            }
            for (&page, _) in op.pages.iter().zip(&op.writes).filter(|(_, w)| **w) {
                if let Err(k) = self.write_page(page)? {
                    return Ok(Err(k));
                }
            }
        }
        self.commit()
    }

    /// Run one transaction to commit; returns its response time in s.
    fn run_txn(&mut self, spec: &TxnSpec) -> io::Result<f64> {
        let started = Instant::now();
        let root: Open = self.sp.open(TXN);
        loop {
            self.proto(|core, _| core.begin_attempt());
            match self.execute(spec)? {
                Ok(local) => {
                    let sends = self.proto(|core, cache| core.finish_commit(cache));
                    self.send_all(sends)?;
                    self.local_commits += u64::from(local);
                    break;
                }
                Err(_kind) => {
                    self.aborts += 1;
                    let sends = self.proto(|core, cache| core.abort_cleanup(cache));
                    self.send_all(sends)?;
                    // The simulator's restart policy: exponential, mean
                    // equal to the running mean response time.
                    let mean = if self.resp_n == 0 {
                        1e-3
                    } else {
                        self.resp_sum / self.resp_n as f64
                    };
                    let delay = -mean * (1.0 - self.rng.next_f64()).ln();
                    let b = self.sp.open(BACKOFF);
                    self.service_until(Instant::now() + Duration::from_secs_f64(delay))?;
                    self.sp.close(b);
                }
            }
        }
        self.sp.close(root);
        let resp = started.elapsed().as_secs_f64();
        self.resp_sum += resp;
        self.resp_n += 1;
        Ok(resp)
    }
}

/// Run client `id` of a rep against the server at `addr`: connect and
/// say hello, run the warm-up, then the measured transactions, then stay
/// responsive until every client is done and say `Bye`.
pub fn run_client(
    id: u32,
    addr: &str,
    spec: &LiveSpec,
    traced: bool,
    origin: Instant,
    phases: &Phases<'_>,
) -> io::Result<ClientResult> {
    if matches!(spec.algorithm, Algorithm::NoWait { .. }) {
        return Err(io::Error::other(
            "the load generator does not drive no-wait locking",
        ));
    }
    // The server child may not be listening yet: retry until it is.
    let sock = loop {
        match TcpStream::connect(addr) {
            Ok(sock) => break sock,
            Err(e)
                if e.kind() == io::ErrorKind::ConnectionRefused
                    && origin.elapsed() < Duration::from_secs(20) =>
            {
                std::thread::sleep(Duration::from_micros(50));
            }
            Err(e) => return Err(e),
        }
    };
    sock.set_nodelay(true)?;
    sock.set_read_timeout(Some(STALL))?;
    let mut wire = Wire::new(sock);
    let mut sp = Spans::new(SPAN_NAMES, origin, false);
    wire.write(&mut sp, &encode_frame(&Frame::Hello { client: id }, 0))?;
    let (alg, page_size) = match wire.recv(&mut sp, None)? {
        Some((Frame::HelloAck { alg, page_size }, _)) => (alg, page_size),
        other => return Err(invalid(format!("expected HelloAck, got {other:?}"))),
    };
    phases
        .hello_at
        .lock()
        .expect("hello times poisoned")
        .push(origin.elapsed().as_secs_f64());
    if alg != spec.algorithm.label() {
        return Err(invalid(format!(
            "server runs {alg}, expected {}",
            spec.algorithm.label()
        )));
    }
    wire.page_size = page_size;

    let mut db = table5_database();
    if let Some(skew) = spec.skew {
        db = db.with_skew(skew);
    }
    let params = TxnParams {
        prob_write: spec.prob_write,
        ..TxnParams::short_batch()
    };
    // The simulator's seeding discipline: one stream per client.
    let mut workload = Workload::new(db, params, Pcg32::new(spec.seed, 10_000 + id as u64));
    let mut c = Client {
        core: ClientCore::new(ClientId(id), spec.algorithm, Tuning::default()),
        cache: ClientCache::new(SystemParams::table5().cache_size),
        wire,
        rng: Pcg32::new(spec.seed, 20_000 + id as u64),
        sp,
        resp_sum: 0.0,
        resp_n: 0,
        local_commits: 0,
        aborts: 0,
        verified: 0,
        round_trips: 0,
    };
    phases.connected.wait();

    for _ in 0..spec.warmup_txns {
        let t = workload.next_txn();
        c.run_txn(&t)?;
        workload.note_commit(&t);
    }
    // Wait for every client to finish warming up, answering callbacks
    // meanwhile: a retained lock must stay callable-back.
    c.wait_for(phases.warmed, spec.clients)?;
    c.cache.reset_stats();
    c.aborts = 0;
    c.round_trips = 0;
    c.wire.msgs = 0;
    c.wire.bytes = 0;
    c.sp.set_on(traced);
    let measured_start = origin.elapsed().as_secs_f64();
    let mut txns = Vec::with_capacity(spec.txns as usize);
    for serial in 0..spec.txns {
        let t = workload.next_txn();
        c.sp.set_group(((id as u64) << 32) | serial as u64);
        let resp = c.run_txn(&t)?;
        txns.push((origin.elapsed().as_secs_f64(), resp * 1e3));
        workload.note_commit(&t);
    }
    c.sp.set_on(false);
    let cache = c.cache.stats();
    let (msgs, bytes) = (c.wire.msgs, c.wire.bytes);

    // Stay responsive until every client is done, for the same reason.
    c.wait_for(phases.done, spec.clients)?;
    c.wire
        .write(&mut c.sp, &encode_frame(&Frame::Bye, page_size))?;
    Ok(ClientResult {
        local_commits: c.local_commits,
        total_commits: u64::from(spec.warmup_txns + spec.txns),
        aborts: c.aborts,
        verified: c.verified,
        msgs,
        bytes,
        round_trips: c.round_trips,
        cache_hits: cache.hits,
        cache_misses: cache.misses,
        txns,
        measured_start,
        spans: c.sp,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Shutdown, TcpListener};

    #[test]
    fn a_large_write_straight_after_a_back_off_is_sent_whole() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut wire = Wire::new(TcpStream::connect(listener.local_addr().unwrap()).unwrap());
        let (mut peer, _) = listener.accept().unwrap();
        let mut sp = Spans::new(SPAN_NAMES, Instant::now(), false);
        // A back-off services the socket until a deadline, which leaves
        // it nonblocking.
        assert!(!wire.fill(&mut sp, Some(Instant::now())).unwrap());
        // A commit frame larger than the loopback socket buffers can ever
        // hold, so the write has to wait for the peer to read.
        let frame = vec![0x5a_u8; 64 << 20];
        let (wrote, written) = std::sync::mpsc::channel();
        let received = std::thread::scope(|s| {
            let reader = s.spawn(move || {
                // The peer starts reading only once the write returned or
                // after a grace period, so the write meets full buffers.
                let _ = written.recv_timeout(Duration::from_millis(100));
                io::copy(&mut peer, &mut io::sink())
            });
            let r = wire.write(&mut sp, &frame);
            let _ = wrote.send(());
            wire.sock.shutdown(Shutdown::Write).unwrap();
            r.unwrap();
            reader.join().unwrap().unwrap()
        });
        assert_eq!(received, frame.len() as u64);
    }
}
