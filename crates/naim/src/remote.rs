//! Remote shared-cache backend: a content-hash-keyed blob protocol
//! spoken to a cache daemon, wrapped in a deterministic robustness
//! layer (seeded retry/backoff, per-op timeouts, circuit breaker).
//!
//! Build farms only benefit from the content-addressed cache if it can
//! be shared across machines, and a shared tier is only shippable when
//! an outage cannot fail a build. This module supplies both halves:
//!
//! * **Protocol.** Every blob travels in a [`Frame`]: a fixed header
//!   carrying the operation, the payload's 128-bit [`ContentHash`], the
//!   name and body lengths, then the name, the body, and a trailing
//!   CRC-32 over name+body. Receivers verify the CRC *and* recompute
//!   the content hash before trusting a payload, so a corrupt reply can
//!   never poison a local cache.
//! * **Service.** [`CacheService`] answers frames from any [`Storage`]:
//!   blobs are stored under their content hash (`obj-<32 hex>`, dedup
//!   for free) with a `names.tsv` index mapping names to hashes. The
//!   in-repo `cmocached` binary is this service behind a TCP listener;
//!   [`LoopbackTransport`] is the same service called in-process, so
//!   tests and benches need no real network.
//! * **Robustness.** [`RemoteStorage`] implements the [`Storage`] trait
//!   over a [`RemoteTransport`]. Every exchange retries on a seeded
//!   exponential-backoff schedule whose jitter is drawn from the
//!   deterministic work-unit clock (never wall time, so traces stay
//!   byte-identical), and a circuit breaker trips after N consecutive
//!   failed attempts, demoting the build to local-only with a
//!   `degraded` trace event. [`FlakyTransport`] extends the
//!   fault-injection substrate to the wire: dropped connections,
//!   stalls, garbage replies, and mid-stream disconnects fire at exact
//!   wire-operation indices, replayed identically run to run.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cmo_telemetry::{Telemetry, TraceEvent};

use crate::repository::{crc32, ContentHash};
use crate::storage::{lock, xorshift, Storage};

/// Magic bytes opening every wire frame.
pub const FRAME_MAGIC: [u8; 4] = *b"CMOR";

/// Fixed frame header length: magic, op, hash, name_len, body_len.
const FRAME_HEADER_LEN: usize = 4 + 1 + 16 + 4 + 4;

/// Largest name or body a frame may carry (64 MiB): a sanity bound so a
/// garbage length field cannot make a receiver allocate unbounded
/// memory.
const FRAME_LIMIT: u32 = 64 << 20;

/// Frame operations. Requests use the low range, responses the high.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameOp {
    /// Request: fetch the blob bound to a name.
    Get,
    /// Request: bind a name to the carried blob.
    Put,
    /// Request: unbind a name; a blob no name references any more is
    /// reclaimed from the store.
    Del,
    /// Request: report the daemon's service counters.
    Stats,
    /// Response: here is the blob (hash + body carried).
    Hit,
    /// Response: no blob is bound to that name.
    Miss,
    /// Response: the request was applied.
    Ok,
    /// Response: the service counters (body holds the text line).
    StatsReply,
    /// Response: the daemon failed internally (body holds the message).
    Err,
}

impl FrameOp {
    fn to_byte(self) -> u8 {
        match self {
            FrameOp::Get => 1,
            FrameOp::Put => 2,
            FrameOp::Del => 3,
            FrameOp::Stats => 4,
            FrameOp::Hit => 0x81,
            FrameOp::Miss => 0x82,
            FrameOp::Ok => 0x83,
            FrameOp::StatsReply => 0x84,
            FrameOp::Err => 0x7f,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        Some(match b {
            1 => FrameOp::Get,
            2 => FrameOp::Put,
            3 => FrameOp::Del,
            4 => FrameOp::Stats,
            0x81 => FrameOp::Hit,
            0x82 => FrameOp::Miss,
            0x83 => FrameOp::Ok,
            0x84 => FrameOp::StatsReply,
            0x7f => FrameOp::Err,
            _ => return None,
        })
    }
}

/// One decoded wire frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The operation.
    pub op: FrameOp,
    /// Content hash of the body (zero for body-less frames).
    pub hash: ContentHash,
    /// The blob name this frame addresses.
    pub name: String,
    /// The payload (empty for body-less frames).
    pub body: Vec<u8>,
}

impl Frame {
    /// Builds a frame, computing the body's content hash.
    #[must_use]
    pub fn new(op: FrameOp, name: &str, body: Vec<u8>) -> Self {
        let hash = if body.is_empty() {
            ContentHash([0, 0])
        } else {
            ContentHash::of(&body)
        };
        Frame {
            op,
            hash,
            name: name.to_owned(),
            body,
        }
    }

    /// Encodes the frame to wire bytes.
    ///
    /// ```text
    /// frame := magic "CMOR" (4) | op (u8) | hash 2×u64 LE (16)
    ///        | name_len (u32 LE) | body_len (u32 LE)
    ///        | name | body | crc32(name + body) (u32 LE)
    /// ```
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(FRAME_HEADER_LEN + self.name.len() + self.body.len() + 4);
        out.extend_from_slice(&FRAME_MAGIC);
        out.push(self.op.to_byte());
        out.extend_from_slice(&self.hash.0[0].to_le_bytes());
        out.extend_from_slice(&self.hash.0[1].to_le_bytes());
        out.extend_from_slice(&(self.name.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.body.len() as u32).to_le_bytes());
        out.extend_from_slice(self.name.as_bytes());
        out.extend_from_slice(&self.body);
        let mut crc_input = Vec::with_capacity(self.name.len() + self.body.len());
        crc_input.extend_from_slice(self.name.as_bytes());
        crc_input.extend_from_slice(&self.body);
        out.extend_from_slice(&crc32(&crc_input).to_le_bytes());
        out
    }

    /// Decodes and verifies wire bytes: magic, known op, consistent
    /// lengths, CRC over name+body, and (for body-carrying frames) the
    /// content hash of the body.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidData`] on any violation — a
    /// garbage or truncated reply is indistinguishable from corruption
    /// and must never be trusted.
    pub fn decode(bytes: &[u8]) -> io::Result<Frame> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
        if bytes.len() < FRAME_HEADER_LEN + 4 {
            return Err(bad("frame shorter than header + crc"));
        }
        if bytes[..4] != FRAME_MAGIC {
            return Err(bad("bad frame magic"));
        }
        let op = FrameOp::from_byte(bytes[4]).ok_or_else(|| bad("unknown frame op"))?;
        let lo = u64::from_le_bytes(bytes[5..13].try_into().unwrap());
        let hi = u64::from_le_bytes(bytes[13..21].try_into().unwrap());
        let name_len = u32::from_le_bytes(bytes[21..25].try_into().unwrap());
        let body_len = u32::from_le_bytes(bytes[25..29].try_into().unwrap());
        if name_len > FRAME_LIMIT || body_len > FRAME_LIMIT {
            return Err(bad("frame length over limit"));
        }
        let total = FRAME_HEADER_LEN + name_len as usize + body_len as usize + 4;
        if bytes.len() != total {
            return Err(bad("frame length mismatch"));
        }
        let name_end = FRAME_HEADER_LEN + name_len as usize;
        let body_end = name_end + body_len as usize;
        let crc = u32::from_le_bytes(bytes[body_end..body_end + 4].try_into().unwrap());
        if crc32(&bytes[FRAME_HEADER_LEN..body_end]) != crc {
            return Err(bad("frame crc mismatch"));
        }
        let name = std::str::from_utf8(&bytes[FRAME_HEADER_LEN..name_end])
            .map_err(|_| bad("frame name is not utf-8"))?
            .to_owned();
        let body = bytes[name_end..body_end].to_vec();
        let hash = ContentHash([lo, hi]);
        if !body.is_empty() && ContentHash::of(&body) != hash {
            return Err(bad("frame content hash mismatch"));
        }
        Ok(Frame {
            op,
            hash,
            name,
            body,
        })
    }
}

/// Reads one length-framed wire frame from a byte stream (the daemon's
/// accept loop and the TCP client both use this). The fixed header is
/// read first to learn the name/body lengths, then the remainder; the
/// caller decodes with [`Frame::decode`], which re-verifies everything.
///
/// # Errors
///
/// Returns [`io::ErrorKind::UnexpectedEof`] on a mid-stream disconnect
/// and [`io::ErrorKind::InvalidData`] on an implausible header.
pub fn read_frame_bytes(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut head = [0u8; FRAME_HEADER_LEN];
    r.read_exact(&mut head)?;
    if head[..4] != FRAME_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad frame magic",
        ));
    }
    let name_len = u32::from_le_bytes(head[21..25].try_into().unwrap());
    let body_len = u32::from_le_bytes(head[25..29].try_into().unwrap());
    if name_len > FRAME_LIMIT || body_len > FRAME_LIMIT {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame length over limit",
        ));
    }
    let rest = name_len as usize + body_len as usize + 4;
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + rest);
    out.extend_from_slice(&head);
    out.resize(FRAME_HEADER_LEN + rest, 0);
    r.read_exact(&mut out[FRAME_HEADER_LEN..])?;
    Ok(out)
}

/// Daemon service counters, answered by the [`FrameOp::Stats`] op and
/// printed by `cmocached --stats` on exit. Blob and byte totals track
/// the store's *current* contents; the traffic counters accumulate
/// since process start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Distinct content blobs currently stored.
    pub blobs: u64,
    /// Total payload bytes across those blobs.
    pub bytes: u64,
    /// GET requests served since start.
    pub gets: u64,
    /// GETs answered with a blob.
    pub hits: u64,
    /// PUT requests acknowledged since start.
    pub puts: u64,
}

/// The daemon half of the blob protocol, serving frames from any
/// [`Storage`]. Blobs live under their content hash (`obj-<32 hex>`),
/// deduplicated across names; `names.tsv` persists the name→hash
/// index so a restarted daemon keeps its warmth. A rebinding PUT or a
/// DEL reclaims the blob it orphans — without that, every pushed
/// generation of a repository would live in the store forever. The
/// [`ServiceStats`] counters are plain atomics, safe to read from a
/// signal handler.
#[derive(Debug)]
pub struct CacheService {
    storage: Arc<dyn Storage>,
    names: Mutex<BTreeMap<String, ContentHash>>,
    blobs: AtomicU64,
    blob_bytes: AtomicU64,
    gets: AtomicU64,
    hits: AtomicU64,
    puts: AtomicU64,
}

/// Name of the persisted name→hash index inside the daemon's storage.
const NAMES_FILE: &str = "names.tsv";

impl CacheService {
    /// Opens the service over `storage`, loading the persisted name
    /// index when present (a missing or partially-torn index only
    /// loses warmth — malformed lines are skipped).
    #[must_use]
    pub fn new(storage: Arc<dyn Storage>) -> Self {
        let mut names = BTreeMap::new();
        if let Ok(bytes) = storage.read(NAMES_FILE) {
            for line in String::from_utf8_lossy(&bytes).lines() {
                let Some((name, hex)) = line.split_once('\t') else {
                    continue;
                };
                if let Some(hash) = ContentHash::from_hex(hex) {
                    names.insert(name.to_owned(), hash);
                }
            }
        }
        let service = CacheService {
            storage,
            names: Mutex::new(names),
            blobs: AtomicU64::new(0),
            blob_bytes: AtomicU64::new(0),
            gets: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            puts: AtomicU64::new(0),
        };
        // Seed the store totals from the loaded index: one entry per
        // distinct referenced hash, sized from the blob on disk.
        let names = lock(&service.names);
        let distinct: std::collections::BTreeSet<[u64; 2]> = names.values().map(|h| h.0).collect();
        for raw in distinct {
            let blob = Self::blob_name(ContentHash(raw));
            if let Ok(size) = service.storage.size(&blob) {
                service.blobs.fetch_add(1, Ordering::Relaxed);
                service.blob_bytes.fetch_add(size, Ordering::Relaxed);
            }
        }
        drop(names);
        service
    }

    /// The service counters. Reads only atomics — no locks, no
    /// allocation — so it is safe from a signal handler.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            blobs: self.blobs.load(Ordering::Relaxed),
            bytes: self.blob_bytes.load(Ordering::Relaxed),
            gets: self.gets.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
        }
    }

    fn blob_name(hash: ContentHash) -> String {
        format!("obj-{}", hash.to_hex())
    }

    /// Removes the blob file for `hash` when no name references it any
    /// more, keeping the blob and byte totals true. Saturating updates:
    /// a blob resized behind the daemon's back must not wrap a counter.
    fn reclaim_if_orphaned(&self, names: &BTreeMap<String, ContentHash>, hash: ContentHash) {
        if names.values().any(|h| *h == hash) {
            return;
        }
        let blob = Self::blob_name(hash);
        let size = self.storage.size(&blob).unwrap_or(0);
        if self.storage.remove(&blob).is_ok() {
            let _ = self
                .blobs
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| {
                    Some(b.saturating_sub(1))
                });
            let _ = self
                .blob_bytes
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| {
                    Some(b.saturating_sub(size))
                });
        }
    }

    fn persist_names(&self, names: &BTreeMap<String, ContentHash>) -> io::Result<()> {
        let mut out = String::new();
        for (name, hash) in names {
            out.push_str(name);
            out.push('\t');
            out.push_str(&hash.to_hex());
            out.push('\n');
        }
        self.storage.write(NAMES_FILE, out.as_bytes())?;
        self.storage.sync(NAMES_FILE)
    }

    /// Answers one request frame with one response frame. Never
    /// panics: malformed requests and storage failures come back as
    /// [`FrameOp::Err`] frames for the client's retry logic to judge.
    #[must_use]
    pub fn handle(&self, request: &[u8]) -> Vec<u8> {
        match Frame::decode(request) {
            Ok(frame) => self.dispatch(&frame).encode(),
            Err(e) => Frame::new(FrameOp::Err, "", e.to_string().into_bytes()).encode(),
        }
    }

    fn dispatch(&self, req: &Frame) -> Frame {
        match req.op {
            FrameOp::Get => {
                self.gets.fetch_add(1, Ordering::Relaxed);
                // Copy the hash out before matching: a scrutinee guard
                // would still be held when the corrupt arm re-locks.
                let hit = lock(&self.names).get(&req.name).copied();
                match hit {
                    None => Frame::new(FrameOp::Miss, &req.name, Vec::new()),
                    Some(hash) => match self.storage.read(&Self::blob_name(hash)) {
                        Ok(body) if ContentHash::of(&body) == hash || body.is_empty() => {
                            self.hits.fetch_add(1, Ordering::Relaxed);
                            Frame::new(FrameOp::Hit, &req.name, body)
                        }
                        // A corrupt or missing blob self-heals into a miss:
                        // the client recompiles and re-puts a good copy.
                        _ => {
                            let mut names = lock(&self.names);
                            names.remove(&req.name);
                            self.reclaim_if_orphaned(&names, hash);
                            Frame::new(FrameOp::Miss, &req.name, Vec::new())
                        }
                    },
                }
            }
            FrameOp::Put => {
                let hash = req.hash;
                let blob = Self::blob_name(hash);
                let stored = if self.storage.exists(&blob) {
                    Ok(())
                } else {
                    self.storage
                        .write(&blob, &req.body)
                        .and_then(|()| self.storage.sync(&blob))
                };
                match stored {
                    Ok(()) => {
                        let mut names = lock(&self.names);
                        let newly_referenced = !names.values().any(|h| *h == hash);
                        let old = names.insert(req.name.clone(), hash);
                        match self.persist_names(&names) {
                            Ok(()) => {
                                self.puts.fetch_add(1, Ordering::Relaxed);
                                if newly_referenced {
                                    self.blobs.fetch_add(1, Ordering::Relaxed);
                                    self.blob_bytes.fetch_add(
                                        self.storage.size(&blob).unwrap_or(0),
                                        Ordering::Relaxed,
                                    );
                                }
                                // A rebind orphans the previous blob
                                // unless another name still holds it.
                                if let Some(old) = old.filter(|o| *o != hash) {
                                    self.reclaim_if_orphaned(&names, old);
                                }
                                Frame::new(FrameOp::Ok, &req.name, Vec::new())
                            }
                            Err(e) => {
                                Frame::new(FrameOp::Err, &req.name, e.to_string().into_bytes())
                            }
                        }
                    }
                    Err(e) => Frame::new(FrameOp::Err, &req.name, e.to_string().into_bytes()),
                }
            }
            FrameOp::Del => {
                let mut names = lock(&self.names);
                let Some(hash) = names.remove(&req.name) else {
                    return Frame::new(FrameOp::Miss, &req.name, Vec::new());
                };
                match self.persist_names(&names) {
                    Ok(()) => {
                        self.reclaim_if_orphaned(&names, hash);
                        Frame::new(FrameOp::Ok, &req.name, Vec::new())
                    }
                    Err(e) => Frame::new(FrameOp::Err, &req.name, e.to_string().into_bytes()),
                }
            }
            FrameOp::Stats => {
                let s = self.stats();
                let line = format!(
                    "blobs={} bytes={} gets={} hits={} puts={}",
                    s.blobs, s.bytes, s.gets, s.hits, s.puts
                );
                Frame::new(FrameOp::StatsReply, &req.name, line.into_bytes())
            }
            // A response op arriving as a request is a client bug.
            _ => Frame::new(FrameOp::Err, &req.name, b"not a request op".to_vec()),
        }
    }
}

/// One request/response exchange with a cache daemon.
///
/// Implementations carry the bytes; all retry, verification, and
/// breaker logic lives above in [`RemoteStorage`], so every transport —
/// real TCP, in-process loopback, fault-injecting wrapper — shares the
/// exact same robustness behaviour.
pub trait RemoteTransport: fmt::Debug + Send + Sync {
    /// Sends one encoded request frame and returns the raw response
    /// frame bytes.
    ///
    /// # Errors
    ///
    /// Returns any connection, timeout, or framing failure.
    fn round_trip(&self, request: &[u8]) -> io::Result<Vec<u8>>;

    /// Whether this transport moves real wall-clock time (a network).
    /// Deterministic transports return `false`, which turns retry
    /// backoff into pure work-unit accounting with no sleeping.
    fn is_wall_clock(&self) -> bool {
        false
    }
}

/// TCP transport to a `cmocached` daemon, one connection per exchange.
///
/// Connect, read, and write each observe the per-op timeout; wall time
/// is used *only* to bound waiting and is never recorded anywhere, so
/// reports and traces stay byte-identical regardless of latency.
#[derive(Debug)]
pub struct TcpTransport {
    addr: String,
    timeout: std::time::Duration,
}

impl TcpTransport {
    /// Creates a transport for `addr` (`host:port`) with a per-op
    /// timeout in milliseconds.
    #[must_use]
    pub fn new(addr: impl Into<String>, timeout_ms: u64) -> Self {
        TcpTransport {
            addr: addr.into(),
            timeout: std::time::Duration::from_millis(timeout_ms.max(1)),
        }
    }
}

impl RemoteTransport for TcpTransport {
    fn round_trip(&self, request: &[u8]) -> io::Result<Vec<u8>> {
        use std::net::{TcpStream, ToSocketAddrs};
        let addr =
            self.addr.to_socket_addrs()?.next().ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidInput, "unresolvable address")
            })?;
        let stream = TcpStream::connect_timeout(&addr, self.timeout)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        let mut stream = stream;
        stream.write_all(request)?;
        stream.flush()?;
        read_frame_bytes(&mut stream)
    }

    fn is_wall_clock(&self) -> bool {
        true
    }
}

/// In-process transport: every exchange is answered directly by a
/// [`CacheService`], no sockets involved. Tests and benches use this to
/// exercise the full remote path deterministically.
#[derive(Debug)]
pub struct LoopbackTransport {
    service: CacheService,
}

impl LoopbackTransport {
    /// Wraps a service.
    #[must_use]
    pub fn new(service: CacheService) -> Self {
        LoopbackTransport { service }
    }

    /// Convenience: a loopback daemon over `storage`.
    #[must_use]
    pub fn over(storage: Arc<dyn Storage>) -> Self {
        LoopbackTransport::new(CacheService::new(storage))
    }
}

impl RemoteTransport for LoopbackTransport {
    fn round_trip(&self, request: &[u8]) -> io::Result<Vec<u8>> {
        Ok(self.service.handle(request))
    }
}

/// A wire fault, applied to the exchange it is scheduled on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// The connection is refused before any byte moves.
    Drop,
    /// The daemon stalls past the per-op timeout; the exchange fails
    /// with `TimedOut` and nothing useful arrives.
    Stall,
    /// The reply arrives with one deterministically-chosen bit flipped
    /// (caught by the frame CRC / content hash).
    Garbage,
    /// The daemon disconnects mid-reply; only a prefix arrives.
    Disconnect,
}

#[derive(Debug, Default)]
struct WirePlan {
    ops: u64,
    /// The daemon "dies" at this exchange index: it and every later
    /// exchange fail with `ConnectionRefused`.
    kill_at: Option<u64>,
    faults: BTreeMap<u64, WireFault>,
}

/// Transport wrapper injecting wire faults from a deterministic,
/// exchange-indexed schedule — [`crate::FaultyStorage`]'s model
/// extended to the network. Retries are separate exchanges, so a
/// schedule can hit the first attempt and spare the retry (or not).
#[derive(Debug)]
pub struct FlakyTransport {
    inner: Arc<dyn RemoteTransport>,
    plan: Mutex<WirePlan>,
}

impl FlakyTransport {
    /// Wraps `inner` with an empty schedule.
    #[must_use]
    pub fn new(inner: Arc<dyn RemoteTransport>) -> Self {
        FlakyTransport {
            inner,
            plan: Mutex::new(WirePlan::default()),
        }
    }

    /// Kills the daemon at exchange index `op`: that exchange and all
    /// later ones fail as refused connections.
    #[must_use]
    pub fn kill_at(self, op: u64) -> Self {
        lock(&self.plan).kill_at = Some(op);
        self
    }

    /// Schedules `fault` on exchange index `op`.
    #[must_use]
    pub fn with_fault(self, op: u64, fault: WireFault) -> Self {
        lock(&self.plan).faults.insert(op, fault);
        self
    }

    /// Spreads `count` wire faults pseudo-randomly (seeded,
    /// deterministic) over exchange indices `0..max_op`.
    #[must_use]
    pub fn with_seeded_faults(
        inner: Arc<dyn RemoteTransport>,
        seed: u64,
        max_op: u64,
        count: u32,
    ) -> Self {
        let this = FlakyTransport::new(inner);
        {
            let mut plan = lock(&this.plan);
            let mut state = seed
                .wrapping_add(0x9e37_79b9_7f4a_7c15)
                .wrapping_mul(0xbf58_476d_1ce4_e5b9)
                | 1;
            for _ in 0..count {
                let op = xorshift(&mut state) % max_op.max(1);
                let fault = match xorshift(&mut state) % 4 {
                    0 => WireFault::Drop,
                    1 => WireFault::Stall,
                    2 => WireFault::Garbage,
                    _ => WireFault::Disconnect,
                };
                plan.faults.insert(op, fault);
            }
        }
        this
    }

    /// Exchanges attempted so far (including faulted ones).
    #[must_use]
    pub fn ops(&self) -> u64 {
        lock(&self.plan).ops
    }

    fn flip_bit(data: &mut [u8], op: u64) {
        if data.is_empty() {
            return;
        }
        let bit = (op as usize).wrapping_mul(0x9e37_79b9) % (data.len() * 8);
        data[bit / 8] ^= 1 << (bit % 8);
    }
}

impl RemoteTransport for FlakyTransport {
    fn round_trip(&self, request: &[u8]) -> io::Result<Vec<u8>> {
        let (op, fault) = {
            let mut plan = lock(&self.plan);
            let op = plan.ops;
            plan.ops += 1;
            if plan.kill_at.is_some_and(|k| op >= k) {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    "daemon killed (injected)",
                ));
            }
            (op, plan.faults.get(&op).copied())
        };
        match fault {
            Some(WireFault::Drop) => Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "connection dropped (injected)",
            )),
            Some(WireFault::Stall) => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "daemon stalled past the per-op timeout (injected)",
            )),
            Some(WireFault::Garbage) => {
                let mut reply = self.inner.round_trip(request)?;
                Self::flip_bit(&mut reply, op);
                Ok(reply)
            }
            Some(WireFault::Disconnect) => {
                let mut reply = self.inner.round_trip(request)?;
                reply.truncate(reply.len() / 2);
                Ok(reply)
            }
            None => self.inner.round_trip(request),
        }
    }

    fn is_wall_clock(&self) -> bool {
        self.inner.is_wall_clock()
    }
}

/// Retry/backoff/breaker policy for a [`RemoteStorage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Extra attempts after the first failure (total attempts =
    /// `retries + 1`).
    pub retries: u32,
    /// Base backoff delay in work units; attempt `a` waits
    /// `base << a` plus seeded jitter in the same range.
    pub base_units: u64,
    /// Seed for the jitter schedule. Two runs with the same seed and
    /// the same fault schedule back off identically.
    pub seed: u64,
    /// Consecutive failed attempts (counted across exchanges, reset by
    /// any success) that trip the circuit breaker. At the default
    /// `retries = 2` a single fully-exhausted exchange — a dead daemon's
    /// first contact — is enough to demote.
    pub breaker_threshold: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            retries: 2,
            base_units: 8,
            seed: 0xC3D0_CACE,
            breaker_threshold: 3,
        }
    }
}

impl RetryPolicy {
    /// The deterministic backoff delay, in work units, before retrying
    /// attempt `attempt` of exchange `op`: exponential in the attempt,
    /// with jitter drawn from the seed and the current work-unit clock
    /// reading — never from wall time, so the delay (and the trace
    /// event recording it) is identical run to run.
    #[must_use]
    pub fn backoff_units(&self, work: u64, op: u64, attempt: u32) -> u64 {
        let base = self.base_units.max(1) << attempt.min(16);
        // Mix before the nonzero clamp so every seed bit (including the
        // lowest) perturbs the schedule; xorshift needs state != 0.
        let mut state = (self.seed
            ^ work.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ op.wrapping_mul(0xbf58_476d_1ce4_e5b9)
            ^ u64::from(attempt).wrapping_mul(0x94d0_49bb_1331_11eb))
        .wrapping_mul(0x2545_f491_4f6c_dd1d)
            | 1;
        base + xorshift(&mut state) % base
    }
}

/// Statistics of a build's remote-tier traffic, surfaced in the
/// unified report's `faults.remote` section. All counters advance only
/// on the main thread's deterministic cache operations, so the section
/// is byte-identical at every `-j`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RemoteStats {
    /// Whether a remote tier was attached at all.
    pub enabled: bool,
    /// GET exchanges issued.
    pub gets: u64,
    /// GETs answered with a verified blob.
    pub hits: u64,
    /// GETs answered with a miss.
    pub misses: u64,
    /// PUT exchanges acknowledged.
    pub puts: u64,
    /// Failed attempts that were retried.
    pub retries: u64,
    /// Exchanges that exhausted every attempt.
    pub failures: u64,
    /// Whether the circuit breaker tripped (build demoted to
    /// local-only for its remainder).
    pub breaker_open: bool,
    /// Verified payload bytes fetched.
    pub fetched_bytes: u64,
    /// Payload bytes pushed.
    pub pushed_bytes: u64,
}

#[derive(Debug, Default)]
struct RemoteState {
    stats: RemoteStats,
    /// Logical exchanges started (the retry schedule's op index).
    ops: u64,
    /// Consecutive failed attempts; reset by any success.
    consecutive_failures: u32,
}

/// The remote cache tier as a [`Storage`] backend.
///
/// Whole-file `read`/`write`/`remove` map directly onto the blob
/// protocol; the byte-granular operations (`append`, `read_at`,
/// `truncate`) compose read-modify-write exchanges, so a `Repository`
/// can run on a remote backend outright. The production configuration
/// composes it under `TieredStorage` instead, where only whole-blob
/// GET/PUT are ever issued.
#[derive(Debug)]
pub struct RemoteStorage {
    transport: Arc<dyn RemoteTransport>,
    policy: RetryPolicy,
    tel: Telemetry,
    state: Mutex<RemoteState>,
}

impl RemoteStorage {
    /// Creates the tier over `transport` with `policy`.
    #[must_use]
    pub fn new(transport: Arc<dyn RemoteTransport>, policy: RetryPolicy) -> Self {
        let state = RemoteState {
            stats: RemoteStats {
                enabled: true,
                ..RemoteStats::default()
            },
            ..RemoteState::default()
        };
        RemoteStorage {
            transport,
            policy,
            tel: Telemetry::disabled(),
            state: Mutex::new(state),
        }
    }

    /// Attaches the telemetry sink used for `remote` trace events and
    /// the work-unit clock the backoff jitter draws from.
    #[must_use]
    pub fn with_telemetry(mut self, tel: Telemetry) -> Self {
        self.tel = tel;
        self
    }

    /// This tier's traffic statistics so far.
    #[must_use]
    pub fn stats(&self) -> RemoteStats {
        lock(&self.state).stats
    }

    /// Whether the circuit breaker has tripped.
    #[must_use]
    pub fn breaker_open(&self) -> bool {
        lock(&self.state).stats.breaker_open
    }

    fn demoted() -> io::Error {
        io::Error::new(
            io::ErrorKind::ConnectionAborted,
            "remote tier demoted (circuit breaker open)",
        )
    }

    /// One attempt: round-trip, decode, and verify. An `Err` response
    /// frame is a daemon-side failure and counts as a failed attempt.
    fn attempt(&self, request: &[u8]) -> io::Result<Frame> {
        let reply = self.transport.round_trip(request)?;
        let frame = Frame::decode(&reply)?;
        if frame.op == FrameOp::Err {
            return Err(io::Error::other(format!(
                "daemon error: {}",
                String::from_utf8_lossy(&frame.body)
            )));
        }
        Ok(frame)
    }

    /// Runs one logical exchange through the retry schedule and the
    /// circuit breaker. `what` names the operation in trace events
    /// (`"get"`, `"put"`, `"del"`).
    fn exchange(&self, what: &str, name: &str, request: &[u8]) -> io::Result<Frame> {
        let op = {
            let mut state = lock(&self.state);
            if state.stats.breaker_open {
                return Err(Self::demoted());
            }
            let op = state.ops;
            state.ops += 1;
            op
        };
        let mut attempt = 0u32;
        loop {
            match self.attempt(request) {
                Ok(frame) => {
                    lock(&self.state).consecutive_failures = 0;
                    return Ok(frame);
                }
                Err(_) if attempt < self.policy.retries => {
                    let delay = self
                        .policy
                        .backoff_units(self.tel.current_work(), op, attempt);
                    {
                        let mut state = lock(&self.state);
                        state.stats.retries += 1;
                        state.consecutive_failures += 1;
                    }
                    self.tel.emit(TraceEvent::Remote {
                        action: "retry",
                        name: format!("{what} {name}"),
                        bytes: delay,
                    });
                    // The delay lives on the deterministic work clock;
                    // real networks additionally sleep it off (bounded),
                    // deterministic transports never sleep.
                    self.tel.work(delay);
                    if self.transport.is_wall_clock() {
                        std::thread::sleep(std::time::Duration::from_millis(delay.min(250)));
                    }
                    attempt += 1;
                }
                Err(e) => {
                    let tripped = {
                        let mut state = lock(&self.state);
                        state.stats.failures += 1;
                        state.consecutive_failures += 1;
                        let trip = !state.stats.breaker_open
                            && state.consecutive_failures >= self.policy.breaker_threshold;
                        if trip {
                            state.stats.breaker_open = true;
                        }
                        trip
                    };
                    if tripped {
                        self.tel.emit(TraceEvent::Remote {
                            action: "open",
                            name: format!("{what} {name}"),
                            bytes: 0,
                        });
                        self.tel.emit(TraceEvent::Degraded {
                            component: "remote",
                            name: "circuit-breaker".to_owned(),
                            error: e.to_string(),
                        });
                    }
                    return Err(e);
                }
            }
        }
    }

    fn get(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        lock(&self.state).stats.gets += 1;
        let req = Frame::new(FrameOp::Get, name, Vec::new()).encode();
        let frame = self.exchange("get", name, &req)?;
        match frame.op {
            FrameOp::Hit => {
                {
                    let mut state = lock(&self.state);
                    state.stats.hits += 1;
                    state.stats.fetched_bytes += frame.body.len() as u64;
                }
                self.tel.emit(TraceEvent::Remote {
                    action: "hit",
                    name: name.to_owned(),
                    bytes: frame.body.len() as u64,
                });
                Ok(Some(frame.body))
            }
            FrameOp::Miss => {
                lock(&self.state).stats.misses += 1;
                self.tel.emit(TraceEvent::Remote {
                    action: "miss",
                    name: name.to_owned(),
                    bytes: 0,
                });
                Ok(None)
            }
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "unexpected reply to get",
            )),
        }
    }

    fn put(&self, name: &str, data: &[u8]) -> io::Result<()> {
        let req = Frame::new(FrameOp::Put, name, data.to_vec()).encode();
        let frame = self.exchange("put", name, &req)?;
        match frame.op {
            FrameOp::Ok => {
                {
                    let mut state = lock(&self.state);
                    state.stats.puts += 1;
                    state.stats.pushed_bytes += data.len() as u64;
                }
                self.tel.emit(TraceEvent::Remote {
                    action: "put",
                    name: name.to_owned(),
                    bytes: data.len() as u64,
                });
                Ok(())
            }
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "unexpected reply to put",
            )),
        }
    }

    fn del(&self, name: &str) -> io::Result<bool> {
        let req = Frame::new(FrameOp::Del, name, Vec::new()).encode();
        let frame = self.exchange("del", name, &req)?;
        match frame.op {
            FrameOp::Ok => Ok(true),
            FrameOp::Miss => Ok(false),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "unexpected reply to del",
            )),
        }
    }

    fn missing(name: &str) -> io::Error {
        io::Error::new(io::ErrorKind::NotFound, format!("no such blob: {name}"))
    }
}

impl Storage for RemoteStorage {
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.get(name)?.ok_or_else(|| Self::missing(name))
    }

    fn write(&self, name: &str, data: &[u8]) -> io::Result<()> {
        self.put(name, data)
    }

    fn append(&self, name: &str, data: &[u8]) -> io::Result<u64> {
        let mut blob = self.get(name)?.unwrap_or_default();
        let offset = blob.len() as u64;
        blob.extend_from_slice(data);
        self.put(name, &blob)?;
        Ok(offset)
    }

    fn read_at(&self, name: &str, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let blob = self.read(name)?;
        let start = offset as usize;
        match start.checked_add(len).filter(|&e| e <= blob.len()) {
            Some(end) => Ok(blob[start..end].to_vec()),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "read past end of blob",
            )),
        }
    }

    fn size(&self, name: &str) -> io::Result<u64> {
        Ok(self.read(name)?.len() as u64)
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        let mut blob = self.read(name)?;
        blob.truncate(len as usize);
        self.put(name, &blob)
    }

    fn sync(&self, _name: &str) -> io::Result<()> {
        // Puts are write-through on the daemon; there is nothing
        // further to make durable from the client side.
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        let blob = self.read(from)?;
        self.put(to, &blob)?;
        self.del(from)?;
        Ok(())
    }

    fn exists(&self, name: &str) -> bool {
        matches!(self.get(name), Ok(Some(_)))
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        if self.del(name)? {
            Ok(())
        } else {
            Err(Self::missing(name))
        }
    }

    fn tier_label(&self) -> &'static str {
        "remote"
    }

    fn remote_stats(&self) -> Option<RemoteStats> {
        Some(self.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    fn loopback(storage: Arc<dyn Storage>) -> Arc<dyn RemoteTransport> {
        Arc::new(LoopbackTransport::over(storage))
    }

    #[test]
    fn frame_round_trips_and_rejects_corruption() {
        let frame = Frame::new(FrameOp::Put, "repo.naim", b"payload bytes".to_vec());
        let wire = frame.encode();
        assert_eq!(Frame::decode(&wire).unwrap(), frame);
        // One flipped bit anywhere is fatal.
        for i in 0..wire.len() {
            let mut bad = wire.clone();
            bad[i] ^= 0x40;
            assert!(Frame::decode(&bad).is_err(), "flip at byte {i} accepted");
        }
        // So is any truncation.
        for cut in 0..wire.len() {
            assert!(
                Frame::decode(&wire[..cut]).is_err(),
                "cut at {cut} accepted"
            );
        }
    }

    #[test]
    fn read_frame_bytes_frames_a_stream() {
        let frame = Frame::new(FrameOp::Hit, "blob", vec![7u8; 300]);
        let wire = frame.encode();
        let mut cursor = io::Cursor::new(wire.clone());
        assert_eq!(read_frame_bytes(&mut cursor).unwrap(), wire);
        // A mid-stream disconnect surfaces as UnexpectedEof.
        let mut short = io::Cursor::new(wire[..wire.len() / 2].to_vec());
        assert_eq!(
            read_frame_bytes(&mut short).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn service_round_trips_and_persists_names() {
        let store: Arc<dyn Storage> = Arc::new(MemStorage::new());
        let service = CacheService::new(Arc::clone(&store));
        let put = Frame::new(FrameOp::Put, "a", b"alpha".to_vec()).encode();
        let reply = Frame::decode(&service.handle(&put)).unwrap();
        assert_eq!(reply.op, FrameOp::Ok);
        let get = Frame::new(FrameOp::Get, "a", Vec::new()).encode();
        let reply = Frame::decode(&service.handle(&get)).unwrap();
        assert_eq!(reply.op, FrameOp::Hit);
        assert_eq!(reply.body, b"alpha");
        // A restarted daemon over the same storage keeps its warmth.
        let reborn = CacheService::new(Arc::clone(&store));
        let reply = Frame::decode(&reborn.handle(&get)).unwrap();
        assert_eq!(
            (reply.op, reply.body.as_slice()),
            (FrameOp::Hit, &b"alpha"[..])
        );
        // Unknown names miss; garbage requests come back as Err frames.
        let miss = Frame::new(FrameOp::Get, "nope", Vec::new()).encode();
        assert_eq!(
            Frame::decode(&service.handle(&miss)).unwrap().op,
            FrameOp::Miss
        );
        assert_eq!(
            Frame::decode(&service.handle(b"not a frame")).unwrap().op,
            FrameOp::Err
        );
    }

    #[test]
    fn service_self_heals_a_corrupt_blob_into_a_miss() {
        let store: Arc<dyn Storage> = Arc::new(MemStorage::new());
        let service = CacheService::new(Arc::clone(&store));
        let put = Frame::new(FrameOp::Put, "a", b"good bytes".to_vec()).encode();
        let _ = service.handle(&put);
        // Corrupt the stored blob behind the daemon's back.
        let blob = CacheService::blob_name(ContentHash::of(b"good bytes"));
        store.write(&blob, b"bad bytes!").unwrap();
        let get = Frame::new(FrameOp::Get, "a", Vec::new()).encode();
        assert_eq!(
            Frame::decode(&service.handle(&get)).unwrap().op,
            FrameOp::Miss
        );
    }

    /// `ContentHash::of` as `REPO_VERSION` 2 defined it: two byte-serial
    /// FNV-1a lanes.
    fn version_2_hash(data: &[u8]) -> ContentHash {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut a: u64 = 0xcbf2_9ce4_8422_2325;
        let mut b: u64 = 0x6c62_272e_07bb_0142;
        for &byte in data {
            a = (a ^ u64::from(byte)).wrapping_mul(PRIME);
            b = (b ^ u64::from(byte.rotate_left(3))).wrapping_mul(PRIME);
        }
        let len = data.len() as u64;
        a = (a ^ len).wrapping_mul(PRIME);
        b = (b ^ len.rotate_left(17)).wrapping_mul(PRIME);
        ContentHash([a, b])
    }

    #[test]
    fn blobs_under_the_version_2_hash_are_misses_and_refusals() {
        let body = b"a repository pushed by an older compiler".to_vec();
        let old = version_2_hash(&body);
        assert_ne!(old, ContentHash::of(&body));
        // A daemon store the older compiler filled: one name, one blob
        // under the old hash.
        let store: Arc<dyn Storage> = Arc::new(MemStorage::new());
        let blob = CacheService::blob_name(old);
        store.write(&blob, &body).unwrap();
        store
            .write(
                NAMES_FILE,
                format!("repo.naim\t{}\n", old.to_hex()).as_bytes(),
            )
            .unwrap();
        let remote = RemoteStorage::new(loopback(Arc::clone(&store)), RetryPolicy::default());
        // The blob no longer hashes to its name: a miss, and the
        // daemon drops it.
        assert_eq!(
            remote.read("repo.naim").unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
        assert!(!store.exists(&blob));
        assert_eq!(remote.stats().failures, 0);
        // An older client's PUT carries the old hash: refused whole.
        let service = CacheService::new(Arc::clone(&store));
        let put = Frame {
            op: FrameOp::Put,
            hash: old,
            name: "repo.naim".to_owned(),
            body: body.clone(),
        };
        let reply = Frame::decode(&service.handle(&put.encode())).unwrap();
        assert_eq!(reply.op, FrameOp::Err);
        assert!(
            !store.exists(&blob) && !store.exists(&CacheService::blob_name(ContentHash::of(&body)))
        );
        // And a reply carrying the old hash is corruption to a client.
        let hit = Frame {
            op: FrameOp::Hit,
            ..put
        };
        assert_eq!(
            Frame::decode(&hit.encode()).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn rebind_and_del_reclaim_orphaned_blobs() {
        let store: Arc<dyn Storage> = Arc::new(MemStorage::new());
        let service = CacheService::new(Arc::clone(&store));
        let blob_of = |body: &[u8]| CacheService::blob_name(ContentHash::of(body));
        let _ = service.handle(&Frame::new(FrameOp::Put, "a", b"v1".to_vec()).encode());
        assert!(store.exists(&blob_of(b"v1")));
        // Rebinding `a` orphans v1: the blob goes with it.
        let _ = service.handle(&Frame::new(FrameOp::Put, "a", b"v2".to_vec()).encode());
        assert!(!store.exists(&blob_of(b"v1")), "orphaned blob must go");
        assert!(store.exists(&blob_of(b"v2")));
        // A second name on the same content protects the blob from
        // either name's deletion — until the last reference drops.
        let _ = service.handle(&Frame::new(FrameOp::Put, "b", b"v2".to_vec()).encode());
        let del_a = Frame::new(FrameOp::Del, "a", Vec::new()).encode();
        assert_eq!(
            Frame::decode(&service.handle(&del_a)).unwrap().op,
            FrameOp::Ok
        );
        assert!(store.exists(&blob_of(b"v2")), "still referenced by `b`");
        let del_b = Frame::new(FrameOp::Del, "b", Vec::new()).encode();
        assert_eq!(
            Frame::decode(&service.handle(&del_b)).unwrap().op,
            FrameOp::Ok
        );
        assert!(!store.exists(&blob_of(b"v2")), "last reference dropped");
        let stats = service.stats();
        assert_eq!((stats.blobs, stats.bytes), (0, 0));
    }

    #[test]
    fn stats_op_reports_store_totals_and_traffic() {
        let store: Arc<dyn Storage> = Arc::new(MemStorage::new());
        let service = CacheService::new(Arc::clone(&store));
        let _ = service.handle(&Frame::new(FrameOp::Put, "a", b"alpha".to_vec()).encode());
        let _ = service.handle(&Frame::new(FrameOp::Put, "b", b"beta!!".to_vec()).encode());
        let get = |name: &str| Frame::new(FrameOp::Get, name, Vec::new()).encode();
        let _ = service.handle(&get("a"));
        let _ = service.handle(&get("nope"));
        let reply =
            Frame::decode(&service.handle(&Frame::new(FrameOp::Stats, "", Vec::new()).encode()))
                .unwrap();
        assert_eq!(reply.op, FrameOp::StatsReply);
        assert_eq!(
            String::from_utf8(reply.body).unwrap(),
            "blobs=2 bytes=11 gets=2 hits=1 puts=2"
        );
        // A restarted daemon re-derives the store totals from the
        // persisted index; traffic counters restart at zero.
        let reborn = CacheService::new(Arc::clone(&store));
        let stats = reborn.stats();
        assert_eq!((stats.blobs, stats.bytes), (2, 11));
        assert_eq!((stats.gets, stats.hits, stats.puts), (0, 0, 0));
    }

    #[test]
    fn remote_storage_satisfies_the_storage_contract() {
        let remote = RemoteStorage::new(
            loopback(Arc::new(MemStorage::new())),
            RetryPolicy::default(),
        );
        remote.write("f", b"abc").unwrap();
        assert_eq!(remote.append("f", b"def").unwrap(), 3);
        assert_eq!(remote.read("f").unwrap(), b"abcdef");
        assert_eq!(remote.read_at("f", 2, 2).unwrap(), b"cd");
        assert_eq!(remote.size("f").unwrap(), 6);
        remote.truncate("f", 4).unwrap();
        remote.sync("f").unwrap();
        remote.rename("f", "g").unwrap();
        assert!(remote.exists("g") && !remote.exists("f"));
        assert_eq!(remote.read("g").unwrap(), b"abcd");
        remote.remove("g").unwrap();
        assert!(matches!(
            remote.read("g").unwrap_err().kind(),
            io::ErrorKind::NotFound
        ));
        assert_eq!(remote.tier_label(), "remote");
        let stats = remote.stats();
        assert!(stats.enabled && stats.puts > 0 && stats.hits > 0);
        assert_eq!(stats.failures, 0);
        assert!(!stats.breaker_open);
    }

    #[test]
    fn one_wire_fault_is_retried_transparently() {
        for fault in [
            WireFault::Drop,
            WireFault::Stall,
            WireFault::Garbage,
            WireFault::Disconnect,
        ] {
            let inner = loopback(Arc::new(MemStorage::new()));
            let flaky = Arc::new(FlakyTransport::new(inner).with_fault(1, fault));
            let remote = RemoteStorage::new(flaky, RetryPolicy::default());
            remote.write("f", b"survives one fault").unwrap();
            assert_eq!(remote.read("f").unwrap(), b"survives one fault");
            let stats = remote.stats();
            assert_eq!(stats.retries, 1, "{fault:?}");
            assert_eq!(stats.failures, 0, "{fault:?}");
        }
    }

    #[test]
    fn breaker_trips_after_consecutive_failures_and_stops_traffic() {
        // Attempts count across exchanges: with no retries, it takes
        // `threshold` whole exchanges to trip.
        let inner = loopback(Arc::new(MemStorage::new()));
        let flaky = Arc::new(FlakyTransport::new(inner).kill_at(0));
        let tel = Telemetry::enabled();
        let policy = RetryPolicy {
            retries: 0,
            ..RetryPolicy::default()
        };
        let remote = RemoteStorage::new(Arc::clone(&flaky) as Arc<dyn RemoteTransport>, policy)
            .with_telemetry(tel.clone());
        let threshold = policy.breaker_threshold;
        for n in 0..threshold {
            assert!(!remote.breaker_open(), "tripped after {n} attempts");
            assert!(remote.read("f").is_err());
        }
        assert!(remote.breaker_open());
        let wire_ops = flaky.ops();
        // Demoted: no further exchange reaches the transport.
        assert!(remote.read("g").is_err());
        assert!(!remote.exists("g"));
        assert_eq!(flaky.ops(), wire_ops, "breaker must stop wire traffic");
        let stats = remote.stats();
        assert_eq!(stats.failures, u64::from(threshold));
        assert_eq!(stats.retries, 0);
        let trace = tel.render_trace();
        assert!(
            trace.contains(r#""event":"remote","action":"open""#),
            "{trace}"
        );
        assert!(
            trace.contains(r#""event":"degraded","component":"remote","name":"circuit-breaker""#),
            "{trace}"
        );
    }

    #[test]
    fn dead_daemon_demotes_within_the_first_exchange_at_default_policy() {
        // The default budget (2 retries, threshold 3) makes one fully
        // exhausted exchange trip the breaker, so an outage costs one
        // retry schedule — not one per touched name.
        let inner = loopback(Arc::new(MemStorage::new()));
        let flaky = Arc::new(FlakyTransport::new(inner).kill_at(0));
        let remote = RemoteStorage::new(
            Arc::clone(&flaky) as Arc<dyn RemoteTransport>,
            RetryPolicy::default(),
        );
        assert!(remote.read("f").is_err());
        assert!(remote.breaker_open());
        assert_eq!(flaky.ops(), u64::from(RetryPolicy::default().retries) + 1);
        let stats = remote.stats();
        assert_eq!(stats.failures, 1);
        assert_eq!(stats.retries, u64::from(RetryPolicy::default().retries));
    }

    #[test]
    fn backoff_schedule_is_reproducible_and_seed_sensitive() {
        let policy = RetryPolicy::default();
        for op in 0..8u64 {
            for attempt in 0..4u32 {
                for work in [0u64, 17, 4096] {
                    assert_eq!(
                        policy.backoff_units(work, op, attempt),
                        policy.backoff_units(work, op, attempt)
                    );
                    // Exponential floor grows with the attempt.
                    assert!(
                        policy.backoff_units(work, op, attempt) >= policy.base_units << attempt
                    );
                }
            }
        }
        let other = RetryPolicy {
            seed: policy.seed ^ 1,
            ..policy
        };
        let differs = (0..16u64)
            .any(|op| other.backoff_units(100, op, 1) != policy.backoff_units(100, op, 1));
        assert!(differs, "seed must perturb the jitter");
    }

    #[test]
    fn seeded_wire_schedule_is_deterministic() {
        let a = FlakyTransport::with_seeded_faults(loopback(Arc::new(MemStorage::new())), 9, 50, 6);
        let b = FlakyTransport::with_seeded_faults(loopback(Arc::new(MemStorage::new())), 9, 50, 6);
        assert_eq!(lock(&a.plan).faults, lock(&b.plan).faults);
        let c =
            FlakyTransport::with_seeded_faults(loopback(Arc::new(MemStorage::new())), 10, 50, 6);
        assert_ne!(lock(&a.plan).faults, lock(&c.plan).faults);
    }

    #[test]
    fn identical_fault_schedules_emit_identical_traces() {
        let run = || {
            let tel = Telemetry::enabled();
            let inner = loopback(Arc::new(MemStorage::new()));
            let flaky = Arc::new(
                FlakyTransport::new(inner)
                    .with_fault(1, WireFault::Garbage)
                    .with_fault(3, WireFault::Stall),
            );
            let remote =
                RemoteStorage::new(flaky, RetryPolicy::default()).with_telemetry(tel.clone());
            remote.write("a", b"one").unwrap();
            remote.write("b", b"two").unwrap();
            let _ = remote.read("a");
            let _ = remote.read("missing");
            (tel.render_trace(), remote.stats())
        };
        let (trace1, stats1) = run();
        let (trace2, stats2) = run();
        assert_eq!(trace1, trace2);
        assert_eq!(stats1, stats2);
        assert!(trace1.contains(r#""action":"retry""#), "{trace1}");
    }
}
