//! The rank world: threads + channels + reliable messaging + collectives.
//!
//! Every point-to-point message carries a self-describing integrity
//! header (per-link sequence number, declared payload length, CRC-32).
//! Delivery is *reliable*: the sender keeps every unacknowledged message
//! in a per-link outbox, and the receiver drives bounded retransmission
//! with exponential backoff when a message is detected as dropped
//! (sequence gap or timeout), truncated, or corrupted. The drop /
//! truncate / corrupt faults that [`crate::fault::CommFaultPlan`] injects
//! are therefore recovered transparently; only an exhausted retransmit
//! budget, a protocol desync, or a dead peer surfaces as a [`CommError`].
//!
//! Liveness is tracked per rank: a rank that exits its body (normally or
//! by panic / fail-stop) is marked dead, receivers and the timeout-aware
//! barrier poll that view at the heartbeat cadence, and a wait on a dead
//! peer fails fast with [`CommError::RankDead`] naming the dead rank —
//! never a hang.
//!
//! Fault injection is off by default and the fault-free path adds only
//! the ack bookkeeping (one outbox push + pop per message) on top of the
//! original header CRC pass.

use crate::crc::crc32;
use crate::fault::{CommFaultPlan, FaultAction};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A tagged message between ranks, with integrity header. The payload is
/// shared with the sender's outbox copy unless a fault mutated it.
struct Message {
    tag: u64,
    /// Per-link delivery sequence number (0, 1, 2, … per `src → dst`).
    seq: u64,
    /// Length the sender intended (bytes); a shorter payload means the
    /// message was truncated in flight.
    declared_len: u64,
    /// CRC-32 of the intended payload.
    crc: u32,
    payload: Arc<Vec<u8>>,
}

/// A sent-but-unacknowledged message retained for retransmission. The
/// payload is pristine (faults are applied per transmission attempt).
#[derive(Clone)]
struct OutboxEntry {
    seq: u64,
    tag: u64,
    declared_len: u64,
    crc: u32,
    payload: Arc<Vec<u8>>,
}

/// A detected communication failure. Every variant names the link, so a
/// supervisor log can say exactly which exchange died.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommError {
    /// No message arrived before the receive deadline (and the sender
    /// never posted it — a lost message is retransmitted instead).
    Timeout { src: usize, dst: usize, tag: u64 },
    /// The sending rank is gone.
    Disconnected { src: usize, dst: usize },
    /// Payload shorter than the declared length (truncated in flight).
    Truncated { src: usize, dst: usize, tag: u64, declared: usize, got: usize },
    /// Payload length matches but the checksum does not (corrupted).
    ChecksumMismatch { src: usize, dst: usize, tag: u64 },
    /// A message with an unexpected tag (protocol desync).
    TagMismatch { src: usize, dst: usize, expected: u64, got: u64 },
    /// Every retransmission attempt of one message also faulted.
    RetransmitsExhausted { src: usize, dst: usize, tag: u64, seq: u64, attempts: u32 },
    /// The peer was declared dead by the liveness view while `dst` was
    /// waiting on it.
    RankDead { rank: usize, dst: usize },
    /// The barrier timed out before every live rank arrived.
    BarrierTimeout { rank: usize },
    /// Delivered payload whose byte length is not a whole number of
    /// f64 words (malformed frame).
    Malformed { src: usize, dst: usize, tag: u64, len: usize },
    /// A collective reply carried fewer values than the protocol
    /// requires.
    ShortCollective { src: usize, dst: usize, tag: u64, got: usize, need: usize },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Timeout { src, dst, tag } => {
                write!(f, "timeout waiting for message {src}->{dst} tag {tag} (never sent?)")
            }
            CommError::Disconnected { src, dst } => {
                write!(f, "rank {src} disconnected (link {src}->{dst})")
            }
            CommError::Truncated { src, dst, tag, declared, got } => write!(
                f,
                "truncated message {src}->{dst} tag {tag}: declared {declared} bytes, got {got}"
            ),
            CommError::ChecksumMismatch { src, dst, tag } => {
                write!(f, "checksum mismatch on message {src}->{dst} tag {tag}")
            }
            CommError::TagMismatch { src, dst, expected, got } => {
                write!(f, "tag mismatch on link {src}->{dst}: expected {expected}, got {got}")
            }
            CommError::RetransmitsExhausted { src, dst, tag, seq, attempts } => write!(
                f,
                "message {src}->{dst} tag {tag} seq {seq} lost after {attempts} retransmits"
            ),
            CommError::RankDead { rank, dst } => {
                write!(f, "rank {rank} is dead (detected by rank {dst})")
            }
            CommError::BarrierTimeout { rank } => {
                write!(f, "barrier timed out on rank {rank}")
            }
            CommError::Malformed { src, dst, tag, len } => write!(
                f,
                "malformed message {src}->{dst} tag {tag}: {len} bytes is not a whole \
                 number of f64 words"
            ),
            CommError::ShortCollective { src, dst, tag, got, need } => write!(
                f,
                "short collective reply {src}->{dst} tag {tag}: got {got} values, need {need}"
            ),
        }
    }
}

impl std::error::Error for CommError {}

impl CommError {
    /// The dead rank this error names, if it names one.
    pub fn dead_rank(&self) -> Option<usize> {
        match self {
            CommError::RankDead { rank, .. } => Some(*rank),
            _ => None,
        }
    }
}

/// Per-rank communication traffic counters.
#[derive(Debug, Default)]
pub struct TrafficStats {
    pub messages_sent: AtomicU64,
    pub bytes_sent: AtomicU64,
    /// Retransmission attempts this rank's receives triggered.
    pub retransmits: AtomicU64,
    /// Messages this rank acknowledged (delivered reliably).
    pub acks: AtomicU64,
}

/// Snapshot of one rank's traffic, including reliability bookkeeping.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RankTraffic {
    /// Logical messages sent (retransmits not double-counted).
    pub messages: u64,
    /// Logical payload bytes sent.
    pub bytes: u64,
    /// Retransmission attempts triggered by this rank's receives.
    pub retransmits: u64,
    /// Messages this rank delivered and acknowledged.
    pub acks: u64,
}

/// Runtime options for a world.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// Observability probe: counts delivered halo messages/bytes,
    /// retransmissions, and heartbeats (disabled by default; counting
    /// never affects delivery or payload bits).
    pub probe: gw_obs::Probe,
    /// Deterministic message-fault schedule; `None` (default) disables
    /// injection entirely.
    pub faults: Option<CommFaultPlan>,
    /// Total deadline for one receive, including all retransmits.
    pub recv_timeout: Duration,
    /// Bounded retransmission budget per message.
    pub max_retransmits: u32,
    /// Initial receiver wait before the first retransmission; doubles on
    /// every retransmit (exponential backoff), capped at
    /// [`WorldConfig::heartbeat_interval`].
    pub retry_backoff: Duration,
    /// Liveness-poll cadence: the longest a receiver or barrier waits
    /// between checks of the per-rank alive view — so a dead peer is
    /// detected within roughly this interval.
    pub heartbeat_interval: Duration,
}

impl Default for WorldConfig {
    fn default() -> Self {
        Self {
            probe: gw_obs::Probe::disabled(),
            faults: None,
            recv_timeout: Duration::from_secs(10),
            max_retransmits: 8,
            retry_backoff: Duration::from_millis(2),
            heartbeat_interval: Duration::from_millis(50),
        }
    }
}

/// The sense-reversing barrier state (timeout- and death-aware).
struct BarrierSync {
    state: Mutex<BarrierGen>,
    cv: Condvar,
}

struct BarrierGen {
    arrived: usize,
    generation: u64,
}

/// The world: matrix of channels between `p` ranks plus the reliability
/// state (outboxes, sequence counters, reorder buffers, liveness).
pub struct World {
    size: usize,
    senders: Vec<Vec<Sender<Message>>>, // senders[src][dst]
    receivers: Vec<Mutex<Vec<Receiver<Message>>>>, // receivers[dst][src]
    barrier: BarrierSync,
    traffic: Vec<TrafficStats>,
    config: WorldConfig,
    /// Next send sequence number per (src, dst) link.
    link_seq: Vec<AtomicU64>,
    /// Next expected receive sequence number per (dst, src) link.
    recv_next: Vec<AtomicU64>,
    /// Sent-but-unacked messages per (src, dst) link.
    outbox: Vec<Mutex<VecDeque<OutboxEntry>>>,
    /// Out-of-order arrivals per (dst, src) link, keyed by seq.
    reorder: Vec<Mutex<BTreeMap<u64, Message>>>,
    /// Liveness view: `alive[r]` is cleared when rank `r`'s body exits
    /// (normal completion, error return, panic, or fail-stop).
    alive: Vec<AtomicBool>,
    /// Monotonic per-rank heartbeat counters (bumped on comm progress).
    heartbeats: Vec<AtomicU64>,
    /// Total faults injected so far (bounded by the plan's `max_faults`).
    faults_injected: AtomicUsize,
}

impl World {
    fn new(size: usize, config: WorldConfig) -> Arc<Self> {
        assert!(size >= 1);
        let mut senders: Vec<Vec<Sender<Message>>> = (0..size).map(|_| Vec::new()).collect();
        let mut receivers: Vec<Vec<Receiver<Message>>> = (0..size).map(|_| Vec::new()).collect();
        for dst_chans in receivers.iter_mut() {
            for src_senders in senders.iter_mut() {
                let (tx, rx) = unbounded();
                src_senders.push(tx);
                dst_chans.push(rx);
            }
        }
        Arc::new(Self {
            size,
            senders,
            receivers: receivers.into_iter().map(Mutex::new).collect(),
            barrier: BarrierSync {
                state: Mutex::new(BarrierGen { arrived: 0, generation: 0 }),
                cv: Condvar::new(),
            },
            traffic: (0..size).map(|_| TrafficStats::default()).collect(),
            config,
            link_seq: (0..size * size).map(|_| AtomicU64::new(0)).collect(),
            recv_next: (0..size * size).map(|_| AtomicU64::new(0)).collect(),
            outbox: (0..size * size).map(|_| Mutex::new(VecDeque::new())).collect(),
            reorder: (0..size * size).map(|_| Mutex::new(BTreeMap::new())).collect(),
            alive: (0..size).map(|_| AtomicBool::new(true)).collect(),
            heartbeats: (0..size).map(|_| AtomicU64::new(0)).collect(),
            faults_injected: AtomicUsize::new(0),
        })
    }

    /// Spawn `size` ranks, run `body` on each, return the per-rank results
    /// in rank order. Panics in a rank propagate.
    pub fn run<T, F>(size: usize, body: F) -> (Vec<T>, Vec<(u64, u64)>)
    where
        T: Send,
        F: Fn(RankCtx<'_>) -> T + Sync,
    {
        Self::run_cfg(size, WorldConfig::default(), body)
    }

    /// [`World::run`] with explicit options (fault plan, receive timeout).
    pub fn run_cfg<T, F>(size: usize, config: WorldConfig, body: F) -> (Vec<T>, Vec<(u64, u64)>)
    where
        T: Send,
        F: Fn(RankCtx<'_>) -> T + Sync,
    {
        let (outs, traffic) = Self::run_cfg_ext(size, config, body);
        (outs, traffic.iter().map(|t| (t.messages, t.bytes)).collect())
    }

    /// [`World::run_cfg`] returning the full per-rank traffic snapshot
    /// (including retransmit and ack counts).
    pub fn run_cfg_ext<T, F>(
        size: usize,
        config: WorldConfig,
        body: F,
    ) -> (Vec<T>, Vec<RankTraffic>)
    where
        T: Send,
        F: Fn(RankCtx<'_>) -> T + Sync,
    {
        let world = Self::new(size, config);
        let results: Vec<Mutex<Option<T>>> = (0..size).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for (rank, slot) in results.iter().enumerate() {
                let world = Arc::clone(&world);
                let body = &body;
                scope.spawn(move || {
                    // Clears the alive flag when the body exits for any
                    // reason (return, error, panic) — the "death
                    // certificate" survivors observe.
                    let _guard = AliveGuard { world: &world, rank };
                    let ctx = RankCtx { world: &world, rank, coll_epoch: Cell::new(0) };
                    let out = body(ctx);
                    *slot.lock().unwrap() = Some(out);
                });
            }
        });
        let outs =
            results.into_iter().map(|m| m.into_inner().unwrap().expect("rank completed")).collect();
        let traffic = world
            .traffic
            .iter()
            .map(|t| RankTraffic {
                messages: t.messages_sent.load(Ordering::Relaxed),
                bytes: t.bytes_sent.load(Ordering::Relaxed),
                retransmits: t.retransmits.load(Ordering::Relaxed),
                acks: t.acks.load(Ordering::Relaxed),
            })
            .collect();
        (outs, traffic)
    }

    /// Transmit (or retransmit) an outbox entry on the wire, applying the
    /// fault plan's decision for this attempt.
    fn transmit(&self, src: usize, dst: usize, entry: &OutboxEntry, attempt: u32) {
        let mut payload = Arc::clone(&entry.payload);
        if let Some(plan) = &self.config.faults {
            if self.faults_injected.load(Ordering::Relaxed) < plan.max_faults {
                match plan.decide_retry(src, dst, entry.seq, attempt) {
                    FaultAction::Deliver => {}
                    FaultAction::Drop => {
                        self.faults_injected.fetch_add(1, Ordering::Relaxed);
                        return; // lost on the wire
                    }
                    FaultAction::Truncate => {
                        self.faults_injected.fetch_add(1, Ordering::Relaxed);
                        let mut v = (*payload).clone();
                        let half = v.len() / 2;
                        v.truncate(half);
                        payload = Arc::new(v);
                    }
                    FaultAction::Corrupt => {
                        self.faults_injected.fetch_add(1, Ordering::Relaxed);
                        let mut v = (*payload).clone();
                        if !v.is_empty() {
                            let mid = v.len() / 2;
                            v[mid] ^= 0x40;
                        }
                        payload = Arc::new(v);
                    }
                }
            }
        }
        let msg = Message {
            tag: entry.tag,
            seq: entry.seq,
            declared_len: entry.declared_len,
            crc: entry.crc,
            payload,
        };
        // The receiving half lives in `self.receivers` for the world's
        // lifetime, so this only fails during teardown races — in which
        // case the message is unobservable anyway. Never panic the rank.
        let _ = self.senders[src][dst].send(msg);
    }
}

/// Decode a delivered payload into f64 words. A byte count that is not
/// a multiple of 8 surfaces as a typed error instead of a panic.
fn decode_payload(src: usize, dst: usize, tag: u64, bytes: &[u8]) -> Result<Vec<f64>, CommError> {
    if !bytes.len().is_multiple_of(8) {
        return Err(CommError::Malformed { src, dst, tag, len: bytes.len() });
    }
    Ok(bytes
        .chunks_exact(8)
        .map(|c| {
            let mut word = [0u8; 8];
            word.copy_from_slice(c);
            f64::from_le_bytes(word)
        })
        .collect())
}

/// Progress state for one reliable receive, possibly spread over many
/// nonblocking polls: the expected link sequence number plus the paced
/// retransmission bookkeeping.
struct RecvProgress {
    expected: u64,
    deadline: Instant,
    attempts: u32,
    backoff: Duration,
    /// Earliest instant an *unforced* retransmission may fire — pacing
    /// so a tight poll loop cannot flood the link and burn the budget.
    next_retry: Instant,
}

/// Clears a rank's alive flag when its thread exits, however it exits.
struct AliveGuard<'a> {
    world: &'a World,
    rank: usize,
}

impl Drop for AliveGuard<'_> {
    fn drop(&mut self) {
        self.world.alive[self.rank].store(false, Ordering::Release);
    }
}

/// Collective-operation kinds mixed into the epoch tag.
const COLL_BASE: u64 = 1 << 63;
const COLL_ALLREDUCE: u64 = 0;
const COLL_ALLGATHERV: u64 = 1;
const COLL_ALLTOALLV: u64 = 2;
const COLL_BROADCAST: u64 = 3;

/// A rank's handle to the world.
pub struct RankCtx<'a> {
    world: &'a World,
    rank: usize,
    /// Monotonic collective-epoch counter: every collective call bumps
    /// it, and the epoch is mixed into the collective's tag so
    /// back-to-back collectives on the same link can never interleave
    /// into a protocol desync. SPMD call order keeps it identical on
    /// every rank.
    coll_epoch: Cell<u64>,
}

impl RankCtx<'_> {
    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn size(&self) -> usize {
        self.world.size
    }

    fn bump_heartbeat(&self) {
        self.world.heartbeats[self.rank].fetch_add(1, Ordering::Relaxed);
        self.world.config.probe.add(gw_obs::Counter::Heartbeats, 1);
    }

    /// Snapshot of the liveness view: `alive[r]` is false once rank `r`'s
    /// body has exited (normally or not).
    pub fn liveness(&self) -> Vec<bool> {
        self.world.alive.iter().map(|a| a.load(Ordering::Acquire)).collect()
    }

    /// Snapshot of the per-rank heartbeat counters.
    pub fn heartbeats(&self) -> Vec<u64> {
        self.world.heartbeats.iter().map(|h| h.load(Ordering::Relaxed)).collect()
    }

    /// Fail-stop: mark this rank dead immediately (before its thread has
    /// unwound), so survivors detect the death at the next liveness poll.
    /// Used by fault-injection harnesses to simulate a killed rank.
    pub fn declare_dead(&self) {
        self.world.alive[self.rank].store(false, Ordering::Release);
    }

    /// Point-to-point send (non-blocking; unbounded buffering). The
    /// message carries a seq + length + CRC header and is retained in the
    /// per-link outbox until the receiver acknowledges it, so in-flight
    /// faults can be recovered by retransmission.
    pub fn send(&self, dst: usize, tag: u64, payload: &[f64]) {
        let bytes: Vec<u8> = payload.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.bump_heartbeat();
        let t = &self.world.traffic[self.rank];
        t.messages_sent.fetch_add(1, Ordering::Relaxed);
        t.bytes_sent.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        let probe = &self.world.config.probe;
        probe.add(gw_obs::Counter::HaloMessages, 1);
        probe.add(gw_obs::Counter::HaloBytes, bytes.len() as u64);
        let link = self.rank * self.world.size + dst;
        let seq = self.world.link_seq[link].fetch_add(1, Ordering::Relaxed);
        let entry = OutboxEntry {
            seq,
            tag,
            declared_len: bytes.len() as u64,
            crc: crc32(&bytes),
            payload: Arc::new(bytes),
        };
        self.world.outbox[link].lock().unwrap().push_back(entry.clone());
        self.world.transmit(self.rank, dst, &entry, 0);
    }

    /// Fresh receive-progress state for the next in-sequence message on
    /// the `src → self` link.
    fn recv_progress(&self, src: usize) -> RecvProgress {
        let recv_link = self.rank * self.world.size + src;
        let cfg = &self.world.config;
        let now = Instant::now();
        let backoff = cfg.retry_backoff.max(Duration::from_micros(100));
        RecvProgress {
            expected: self.world.recv_next[recv_link].load(Ordering::Relaxed),
            deadline: now + cfg.recv_timeout,
            attempts: 0,
            backoff,
            next_retry: now + backoff,
        }
    }

    /// Request one retransmission of `st.expected`, if the sender has
    /// posted it and the pace allows (`force` overrides the pacing — a
    /// sequence gap or integrity failure is *proof* of loss, whereas a
    /// poll that merely found the channel empty must be rate-limited).
    /// Returns `Err` once the budget is exhausted.
    fn request_retransmit(
        &self,
        src: usize,
        tag: u64,
        st: &mut RecvProgress,
        force: bool,
    ) -> Result<(), CommError> {
        let now = Instant::now();
        if !force && now < st.next_retry {
            return Ok(());
        }
        let dst = self.rank;
        let send_link = src * self.world.size + dst;
        let entry = {
            let ob = self.world.outbox[send_link].lock().unwrap();
            ob.iter().find(|e| e.seq == st.expected).cloned()
        };
        let Some(entry) = entry else { return Ok(()) }; // not sent yet: keep waiting
        st.attempts += 1;
        if st.attempts > self.world.config.max_retransmits {
            return Err(CommError::RetransmitsExhausted {
                src,
                dst,
                tag,
                seq: st.expected,
                attempts: st.attempts - 1,
            });
        }
        self.world.traffic[dst].retransmits.fetch_add(1, Ordering::Relaxed);
        self.world.config.probe.add(gw_obs::Counter::Retransmits, 1);
        self.world.transmit(src, dst, &entry, st.attempts);
        st.backoff = (st.backoff * 2).min(self.world.config.heartbeat_interval);
        st.next_retry = now + st.backoff;
        Ok(())
    }

    /// One step of the reliable-receive state machine: wait up to `wait`
    /// for an arrival and process it. `Ok(Some(payload))` on delivery,
    /// `Ok(None)` while the message is still in flight. Both the
    /// blocking receive and the nonblocking [`RecvHandle`] are thin
    /// loops over this.
    fn recv_poll(
        &self,
        src: usize,
        tag: u64,
        st: &mut RecvProgress,
        wait: Duration,
    ) -> Result<Option<Vec<f64>>, CommError> {
        let dst = self.rank;
        let size = self.world.size;
        let recv_link = dst * size + src; // reorder / recv_next index
        let send_link = src * size + dst; // outbox index
        self.bump_heartbeat();
        // In-order arrival stashed by an earlier receive?
        let stashed = self.world.reorder[recv_link].lock().unwrap().remove(&st.expected);
        let msg = if let Some(m) = stashed {
            Some(m)
        } else {
            let got = {
                let guard = self.world.receivers[dst].lock().unwrap();
                guard[src].recv_timeout(wait)
            };
            match got {
                Ok(m) => Some(m),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(CommError::Disconnected { src, dst })
                }
            }
        };
        match msg {
            Some(msg) if msg.seq < st.expected => Ok(None), // stale duplicate
            Some(msg) if msg.seq > st.expected => {
                // FIFO links: a gap proves `expected` was dropped.
                self.world.reorder[recv_link].lock().unwrap().insert(msg.seq, msg);
                self.request_retransmit(src, tag, st, true)?;
                Ok(None)
            }
            Some(msg) => {
                // In sequence: verify integrity, then the protocol.
                if msg.payload.len() as u64 != msg.declared_len || crc32(&msg.payload) != msg.crc {
                    self.request_retransmit(src, tag, st, true)?;
                    return Ok(None);
                }
                if msg.tag != tag {
                    return Err(CommError::TagMismatch { src, dst, expected: tag, got: msg.tag });
                }
                // Deliver + ack: advance the expected seq and drop the
                // sender's outbox copies up to this seq.
                self.world.recv_next[recv_link].store(st.expected + 1, Ordering::Relaxed);
                {
                    let mut ob = self.world.outbox[send_link].lock().unwrap();
                    while ob.front().is_some_and(|e| e.seq <= st.expected) {
                        ob.pop_front();
                    }
                }
                self.world.traffic[dst].acks.fetch_add(1, Ordering::Relaxed);
                decode_payload(src, dst, tag, &msg.payload).map(Some)
            }
            None => {
                // Timed out on an empty channel. Dead peer that never
                // posted the message ⇒ fail fast naming the rank.
                let sender_dead = !self.world.alive[src].load(Ordering::Acquire);
                let posted = self.world.outbox[send_link]
                    .lock()
                    .unwrap()
                    .iter()
                    .any(|e| e.seq == st.expected);
                if sender_dead && !posted {
                    return Err(CommError::RankDead { rank: src, dst });
                }
                // A blocking wait already slept a full backoff interval,
                // so its retransmission is due; a zero-wait poll is paced.
                self.request_retransmit(src, tag, st, wait > Duration::ZERO)?;
                if Instant::now() >= st.deadline {
                    return Err(CommError::Timeout { src, dst, tag });
                }
                Ok(None)
            }
        }
    }

    /// Reliable blocking receive of the next in-sequence message from
    /// `src` with `tag`. Dropped, truncated, or corrupted transmissions
    /// are recovered by bounded retransmission with exponential backoff;
    /// only an exhausted budget, a dead peer, a protocol desync, or the
    /// overall deadline surfaces as a [`CommError`].
    pub fn try_recv(&self, src: usize, tag: u64) -> Result<Vec<f64>, CommError> {
        let mut st = self.recv_progress(src);
        loop {
            let wait = st.backoff.min(self.world.config.heartbeat_interval);
            if let Some(v) = self.recv_poll(src, tag, &mut st, wait)? {
                return Ok(v);
            }
        }
    }

    /// Nonblocking post of a point-to-point message — an explicit alias
    /// of [`RankCtx::send`] (which never blocks: channels are unbounded
    /// and reliability is receiver-driven), named for symmetry with
    /// [`RankCtx::irecv`] in the overlapped exchange path.
    pub fn isend(&self, dst: usize, tag: u64, payload: &[f64]) {
        self.send(dst, tag, payload)
    }

    /// Begin a nonblocking reliable receive from `src` with `tag`,
    /// returning a pollable [`RecvHandle`]. At most one receive (handle
    /// or blocking call) may be outstanding per source link at a time —
    /// the reliable layer tracks one expected sequence number per link.
    pub fn irecv(&self, src: usize, tag: u64) -> RecvHandle<'_, '_> {
        RecvHandle { ctx: self, src, tag, st: self.recv_progress(src), done: false }
    }

    /// Unreliable (raw) receive of the next message from `src`: verifies
    /// arrival, length, checksum and tag, and surfaces violations as a
    /// [`CommError`] without any retransmission — the detection layer the
    /// reliable path is built on, kept public for fault-injection tests.
    /// Must not be mixed with [`RankCtx::try_recv`] on the same link.
    pub fn try_recv_raw(&self, src: usize, tag: u64) -> Result<Vec<f64>, CommError> {
        let dst = self.rank;
        let guard = self.world.receivers[dst].lock().unwrap();
        let got = guard[src].recv_timeout(self.world.config.recv_timeout);
        drop(guard);
        let msg = match got {
            Ok(m) => m,
            Err(RecvTimeoutError::Timeout) => return Err(CommError::Timeout { src, dst, tag }),
            Err(RecvTimeoutError::Disconnected) => {
                return Err(CommError::Disconnected { src, dst })
            }
        };
        if msg.tag != tag {
            return Err(CommError::TagMismatch { src, dst, expected: tag, got: msg.tag });
        }
        if msg.payload.len() as u64 != msg.declared_len {
            return Err(CommError::Truncated {
                src,
                dst,
                tag,
                declared: msg.declared_len as usize,
                got: msg.payload.len(),
            });
        }
        if crc32(&msg.payload) != msg.crc {
            return Err(CommError::ChecksumMismatch { src, dst, tag });
        }
        decode_payload(src, dst, tag, &msg.payload)
    }

    /// Blocking receive that treats any comm fault as fatal for the rank
    /// (legacy callers; supervised paths use [`RankCtx::try_recv`]).
    pub fn recv(&self, src: usize, tag: u64) -> Vec<f64> {
        self.try_recv(src, tag)
            .unwrap_or_else(|e| panic!("rank {}: unrecoverable comm fault: {e}", self.rank))
    }

    /// Barrier across all ranks (panics on timeout or a dead rank; the
    /// supervised path is [`RankCtx::try_barrier`]).
    pub fn barrier(&self) {
        self.try_barrier().unwrap_or_else(|e| panic!("rank {}: barrier failed: {e}", self.rank));
    }

    /// Timeout-aware barrier: waits until every rank arrives, polling the
    /// liveness view at the heartbeat cadence. Never hangs on a dead
    /// rank — returns [`CommError::RankDead`] naming it, or
    /// [`CommError::BarrierTimeout`] after the receive deadline.
    pub fn try_barrier(&self) -> Result<(), CommError> {
        self.bump_heartbeat();
        let b = &self.world.barrier;
        let mut st = b.state.lock().unwrap();
        let gen = st.generation;
        st.arrived += 1;
        if st.arrived == self.world.size {
            st.arrived = 0;
            st.generation += 1;
            b.cv.notify_all();
            return Ok(());
        }
        let deadline = Instant::now() + self.world.config.recv_timeout;
        while st.generation == gen {
            let (st2, _) = b.cv.wait_timeout(st, self.world.config.heartbeat_interval).unwrap();
            st = st2;
            if st.generation != gen {
                break;
            }
            if let Some(dead) = (0..self.world.size)
                .find(|&r| r != self.rank && !self.world.alive[r].load(Ordering::Acquire))
            {
                st.arrived -= 1; // withdraw so a later generation isn't corrupted
                return Err(CommError::RankDead { rank: dead, dst: self.rank });
            }
            if Instant::now() >= deadline {
                st.arrived -= 1;
                return Err(CommError::BarrierTimeout { rank: self.rank });
            }
        }
        Ok(())
    }

    /// Next collective tag: a fresh epoch per collective call, identical
    /// across ranks because collectives are SPMD-ordered.
    fn coll_tag(&self, kind: u64) -> u64 {
        let e = self.coll_epoch.get();
        self.coll_epoch.set(e + 1);
        COLL_BASE | (e << 3) | kind
    }

    /// Sum-allreduce of one value.
    pub fn allreduce_sum(&self, v: f64) -> f64 {
        self.try_allreduce_sum(v)
            .unwrap_or_else(|e| panic!("rank {}: allreduce failed: {e}", self.rank))
    }

    /// Max-allreduce of one value.
    pub fn allreduce_max(&self, v: f64) -> f64 {
        self.try_allreduce_max(v)
            .unwrap_or_else(|e| panic!("rank {}: allreduce failed: {e}", self.rank))
    }

    /// Fault-tolerant sum-allreduce: never hangs on a dead rank.
    pub fn try_allreduce_sum(&self, v: f64) -> Result<f64, CommError> {
        self.try_allreduce(v, |a, b| a + b)
    }

    /// Fault-tolerant max-allreduce: never hangs on a dead rank.
    pub fn try_allreduce_max(&self, v: f64) -> Result<f64, CommError> {
        self.try_allreduce(v, f64::max)
    }

    fn try_allreduce(&self, v: f64, op: impl Fn(f64, f64) -> f64) -> Result<f64, CommError> {
        // Gather to rank 0, reduce, broadcast. O(p) — fine for the rank
        // counts we simulate; the traffic model uses message counts, not
        // this implementation's latency.
        let tag = self.coll_tag(COLL_ALLREDUCE);
        let short = |src: usize, got: usize| CommError::ShortCollective {
            src,
            dst: self.rank,
            tag,
            got,
            need: 1,
        };
        if self.rank == 0 {
            let mut acc = v;
            for src in 1..self.size() {
                let x = self.try_recv(src, tag)?;
                acc = op(acc, x.first().copied().ok_or_else(|| short(src, x.len()))?);
            }
            for dst in 1..self.size() {
                self.send(dst, tag, &[acc]);
            }
            Ok(acc)
        } else {
            self.send(0, tag, &[v]);
            let x = self.try_recv(0, tag)?;
            x.first().copied().ok_or_else(|| short(0, x.len()))
        }
    }

    /// Gather variable-length vectors to every rank (allgatherv).
    pub fn allgatherv(&self, mine: &[f64]) -> Vec<Vec<f64>> {
        self.try_allgatherv(mine)
            .unwrap_or_else(|e| panic!("rank {}: allgatherv failed: {e}", self.rank))
    }

    /// Fault-tolerant allgatherv: never hangs on a dead rank.
    pub fn try_allgatherv(&self, mine: &[f64]) -> Result<Vec<Vec<f64>>, CommError> {
        let tag = self.coll_tag(COLL_ALLGATHERV);
        for dst in 0..self.size() {
            if dst != self.rank {
                self.send(dst, tag, mine);
            }
        }
        let mut out = Vec::with_capacity(self.size());
        for src in 0..self.size() {
            if src == self.rank {
                out.push(mine.to_vec());
            } else {
                out.push(self.try_recv(src, tag)?);
            }
        }
        Ok(out)
    }

    /// Personalized all-to-all: `sends[dst]` goes to rank `dst`; returns
    /// `recvs[src]`.
    pub fn alltoallv(&self, sends: &[Vec<f64>]) -> Vec<Vec<f64>> {
        self.try_alltoallv(sends)
            .unwrap_or_else(|e| panic!("rank {}: alltoallv failed: {e}", self.rank))
    }

    /// Fault-tolerant personalized all-to-all: never hangs on a dead rank.
    pub fn try_alltoallv(&self, sends: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, CommError> {
        assert_eq!(sends.len(), self.size());
        let tag = self.coll_tag(COLL_ALLTOALLV);
        for (dst, payload) in sends.iter().enumerate() {
            if dst != self.rank {
                self.send(dst, tag, payload);
            }
        }
        let mut out = Vec::with_capacity(self.size());
        for src in 0..self.size() {
            if src == self.rank {
                out.push(sends[self.rank].clone());
            } else {
                out.push(self.try_recv(src, tag)?);
            }
        }
        Ok(out)
    }

    /// Broadcast from root.
    pub fn broadcast(&self, root: usize, data: &[f64]) -> Vec<f64> {
        self.try_broadcast(root, data)
            .unwrap_or_else(|e| panic!("rank {}: broadcast failed: {e}", self.rank))
    }

    /// Fault-tolerant broadcast from root: never hangs on a dead rank.
    pub fn try_broadcast(&self, root: usize, data: &[f64]) -> Result<Vec<f64>, CommError> {
        let tag = self.coll_tag(COLL_BROADCAST);
        if self.rank == root {
            for dst in 0..self.size() {
                if dst != root {
                    self.send(dst, tag, data);
                }
            }
            Ok(data.to_vec())
        } else {
            self.try_recv(root, tag)
        }
    }
}

/// An in-progress nonblocking reliable receive created by
/// [`RankCtx::irecv`]. Polling it drives the same retransmission state
/// machine as the blocking receive — paced by the configured backoff,
/// so a tight compute/poll loop cannot flood the link or burn the
/// retransmit budget — and completion delivers the payload bit-exact.
///
/// A handle owns the link's expected-sequence cursor: complete it
/// (or drop it) before starting another receive from the same source.
pub struct RecvHandle<'c, 'w> {
    ctx: &'c RankCtx<'w>,
    src: usize,
    tag: u64,
    st: RecvProgress,
    done: bool,
}

impl RecvHandle<'_, '_> {
    /// The source rank this handle is receiving from.
    pub fn src(&self) -> usize {
        self.src
    }

    /// Nonblocking progress check: `Ok(Some(payload))` once the message
    /// has been delivered, `Ok(None)` while still in flight. Must not
    /// be called again after it has returned a payload.
    pub fn poll(&mut self) -> Result<Option<Vec<f64>>, CommError> {
        debug_assert!(!self.done, "RecvHandle polled after completion");
        let r = self.ctx.recv_poll(self.src, self.tag, &mut self.st, Duration::ZERO);
        if matches!(r, Ok(Some(_))) {
            self.done = true;
        }
        r
    }

    /// Block until delivery (or a comm error) — the completion of the
    /// nonblocking receive, with blocking-receive retransmit cadence.
    pub fn wait(&mut self) -> Result<Vec<f64>, CommError> {
        debug_assert!(!self.done, "RecvHandle waited after completion");
        loop {
            let wait = self.st.backoff.min(self.ctx.world.config.heartbeat_interval);
            if let Some(v) = self.ctx.recv_poll(self.src, self.tag, &mut self.st, wait)? {
                self.done = true;
                return Ok(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_world() {
        let (out, traffic) = World::run(1, |ctx| {
            assert_eq!(ctx.rank(), 0);
            assert_eq!(ctx.size(), 1);
            ctx.allreduce_sum(5.0)
        });
        assert_eq!(out, vec![5.0]);
        assert_eq!(traffic[0], (0, 0));
    }

    #[test]
    fn point_to_point_ring() {
        let p = 4;
        let (out, traffic) = World::run(p, |ctx| {
            let next = (ctx.rank() + 1) % ctx.size();
            let prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
            ctx.send(next, 7, &[ctx.rank() as f64]);
            ctx.recv(prev, 7)[0]
        });
        assert_eq!(out, vec![3.0, 0.0, 1.0, 2.0]);
        for t in traffic {
            assert_eq!(t.0, 1);
            assert_eq!(t.1, 8);
        }
    }

    #[test]
    fn allreduce_sum_and_max() {
        let (out, _) = World::run(5, |ctx| {
            let s = ctx.allreduce_sum(ctx.rank() as f64);
            let m = ctx.allreduce_max(ctx.rank() as f64 * 2.0);
            (s, m)
        });
        for (s, m) in out {
            assert_eq!(s, 10.0);
            assert_eq!(m, 8.0);
        }
    }

    #[test]
    fn alltoallv_exchanges_personalized_data() {
        let p = 3;
        let (out, _) = World::run(p, |ctx| {
            let sends: Vec<Vec<f64>> =
                (0..p).map(|dst| vec![(ctx.rank() * 10 + dst) as f64; ctx.rank() + 1]).collect();
            ctx.alltoallv(&sends)
        });
        for (rank, recvs) in out.iter().enumerate() {
            for (src, data) in recvs.iter().enumerate() {
                assert_eq!(data.len(), src + 1);
                assert!(data.iter().all(|&v| v == (src * 10 + rank) as f64));
            }
        }
    }

    #[test]
    fn broadcast_from_root() {
        let (out, _) = World::run(4, |ctx| ctx.broadcast(2, &[9.0, 8.0]));
        for v in out {
            assert_eq!(v, vec![9.0, 8.0]);
        }
    }

    #[test]
    fn allgatherv_collects_all() {
        let (out, _) = World::run(3, |ctx| {
            let mine = vec![ctx.rank() as f64; ctx.rank() + 1];
            ctx.allgatherv(&mine)
        });
        for recvs in out {
            assert_eq!(recvs.len(), 3);
            for (src, v) in recvs.iter().enumerate() {
                assert_eq!(v.len(), src + 1);
            }
        }
    }

    #[test]
    fn back_to_back_collectives_use_distinct_epoch_tags() {
        // Two identical-shape collectives in a row: without epoch tags a
        // lost first-round message could desync into the second round.
        // With epochs the rounds are cryptographically separated; both
        // must return the right values even under seeded drops.
        let cfg = WorldConfig {
            faults: Some(CommFaultPlan::new(21).with_drop_rate(0.2)),
            ..WorldConfig::default()
        };
        let (out, _) = World::run_cfg(3, cfg, |ctx| {
            let a = ctx.try_allreduce_sum(1.0)?;
            let b = ctx.try_allreduce_sum(10.0)?;
            let c = ctx.try_broadcast(1, &[7.0])?;
            Ok::<_, CommError>((a, b, c[0]))
        });
        for r in out {
            assert_eq!(r.unwrap(), (3.0, 30.0, 7.0));
        }
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::AtomicUsize;
        let counter = AtomicUsize::new(0);
        World::run(4, |ctx| {
            counter.fetch_add(1, Ordering::SeqCst);
            ctx.barrier();
            // After the barrier every rank's increment is visible.
            assert_eq!(counter.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    fn dropped_message_recovered_by_retransmission() {
        // Every original transmission drops (budget 1): the reliable
        // layer must recover the payload via retransmission, bit-exact.
        let cfg = WorldConfig {
            faults: Some(CommFaultPlan::new(11).with_drop_rate(1.0).with_max_faults(1)),
            recv_timeout: Duration::from_secs(5),
            ..WorldConfig::default()
        };
        let (out, traffic) = World::run_cfg_ext(2, cfg, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 3, &[1.0, 2.0]);
                Ok(Vec::new())
            } else {
                ctx.try_recv(0, 3)
            }
        });
        assert_eq!(out[1], Ok(vec![1.0, 2.0]));
        assert!(traffic[1].retransmits >= 1, "recovery must go through a retransmit");
        assert_eq!(traffic[1].acks, 1);
    }

    #[test]
    fn truncated_and_corrupted_messages_recovered() {
        for plan in [
            CommFaultPlan::new(12).with_truncate_rate(1.0).with_max_faults(2),
            CommFaultPlan::new(13).with_corrupt_rate(1.0).with_max_faults(2),
        ] {
            let cfg = WorldConfig {
                faults: Some(plan),
                recv_timeout: Duration::from_secs(5),
                ..WorldConfig::default()
            };
            let (out, _) = World::run_cfg(2, cfg, |ctx| {
                if ctx.rank() == 0 {
                    ctx.send(1, 3, &[1.0, 2.0, 3.0, 4.0]);
                    Ok(Vec::new())
                } else {
                    ctx.try_recv(0, 3)
                }
            });
            assert_eq!(out[1], Ok(vec![1.0, 2.0, 3.0, 4.0]));
        }
    }

    #[test]
    fn unrecoverable_loss_exhausts_retransmit_budget() {
        // Unlimited faults at drop rate 1: every attempt dies; the
        // receive must surface a typed error, never hang.
        let cfg = WorldConfig {
            faults: Some(CommFaultPlan::new(11).with_drop_rate(1.0)),
            recv_timeout: Duration::from_secs(30),
            max_retransmits: 3,
            retry_backoff: Duration::from_millis(1),
            heartbeat_interval: Duration::from_millis(5),
            ..WorldConfig::default()
        };
        let (out, _) = World::run_cfg(2, cfg, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 3, &[1.0, 2.0]);
                Ok(Vec::new())
            } else {
                ctx.try_recv(0, 3)
            }
        });
        assert_eq!(
            out[1],
            Err(CommError::RetransmitsExhausted { src: 0, dst: 1, tag: 3, seq: 0, attempts: 3 })
        );
    }

    #[test]
    fn raw_path_detects_truncation_and_tag_skew() {
        // The raw (unreliable) receive keeps the original detection
        // semantics: a truncated payload is a typed error, and a dropped
        // message followed by the next one is a tag mismatch.
        let cfg = WorldConfig {
            faults: Some(CommFaultPlan::new(11).with_truncate_rate(1.0).with_max_faults(1)),
            recv_timeout: Duration::from_millis(200),
            ..WorldConfig::default()
        };
        let (out, _) = World::run_cfg(2, cfg, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 3, &[1.0, 2.0, 3.0, 4.0]);
                Ok(Vec::new())
            } else {
                ctx.try_recv_raw(0, 3)
            }
        });
        assert_eq!(
            out[1],
            Err(CommError::Truncated { src: 0, dst: 1, tag: 3, declared: 32, got: 16 })
        );

        let cfg = WorldConfig {
            faults: Some(CommFaultPlan::new(5).with_drop_rate(1.0).with_max_faults(1)),
            recv_timeout: Duration::from_millis(200),
            ..WorldConfig::default()
        };
        let (out, _) = World::run_cfg(2, cfg, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 0, &[1.0]);
                ctx.send(1, 1, &[2.0]);
                Ok(Vec::new())
            } else {
                // Channels are FIFO: the first arrival carrying tag 1
                // proves message 0 was dropped and message 1 delivered.
                ctx.try_recv_raw(0, 0)
            }
        });
        assert_eq!(out[1], Err(CommError::TagMismatch { src: 0, dst: 1, expected: 0, got: 1 }));
    }

    #[test]
    fn dead_rank_detected_by_receiver() {
        let cfg = WorldConfig {
            recv_timeout: Duration::from_secs(10),
            heartbeat_interval: Duration::from_millis(5),
            ..WorldConfig::default()
        };
        let started = Instant::now();
        let (out, _) = World::run_cfg(2, cfg, |ctx| {
            if ctx.rank() == 0 {
                ctx.declare_dead();
                Err(CommError::RankDead { rank: 0, dst: 0 })
            } else {
                ctx.try_recv(0, 9).map(|_| ())
            }
        });
        assert_eq!(out[1], Err(CommError::RankDead { rank: 0, dst: 1 }));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "death must be detected well before the receive deadline"
        );
    }

    #[test]
    fn dead_rank_detected_by_barrier() {
        let cfg =
            WorldConfig { heartbeat_interval: Duration::from_millis(5), ..WorldConfig::default() };
        let (out, _) = World::run_cfg(3, cfg, |ctx| {
            if ctx.rank() == 0 {
                ctx.declare_dead();
                Err(CommError::RankDead { rank: 0, dst: 0 })
            } else {
                ctx.try_barrier()
            }
        });
        for (r, res) in out.iter().enumerate().skip(1) {
            assert_eq!(*res, Err(CommError::RankDead { rank: 0, dst: r }));
        }
    }

    #[test]
    fn liveness_view_reflects_completion() {
        let (out, _) = World::run(2, |ctx| {
            if ctx.rank() == 1 {
                // Rank 0 exits immediately; poll until the view shows it.
                let deadline = Instant::now() + Duration::from_secs(5);
                loop {
                    let live = ctx.liveness();
                    assert!(live[1], "a running rank sees itself alive");
                    if !live[0] {
                        return true;
                    }
                    assert!(Instant::now() < deadline, "liveness never updated");
                    std::thread::yield_now();
                }
            }
            true
        });
        assert_eq!(out, vec![true, true]);
    }

    #[test]
    fn max_faults_bounds_injection() {
        // drop_rate 1.0 but max_faults 1: only the first transmission
        // dies; the reliable layer recovers it and everything after
        // flows fault-free.
        let cfg = WorldConfig {
            faults: Some(CommFaultPlan::new(5).with_drop_rate(1.0).with_max_faults(1)),
            recv_timeout: Duration::from_secs(5),
            ..WorldConfig::default()
        };
        let (out, _) = World::run_cfg(2, cfg, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 0, &[1.0]);
                ctx.send(1, 1, &[2.0]);
                Ok(Vec::new())
            } else {
                let a = ctx.try_recv(0, 0)?;
                let b = ctx.try_recv(0, 1)?;
                Ok::<_, CommError>(vec![a[0], b[0]])
            }
        });
        assert_eq!(out[1], Ok(vec![1.0, 2.0]));
    }

    #[test]
    fn irecv_wait_completes_like_blocking_recv() {
        // Post the receive before the send lands (the overlap pattern):
        // completion must deliver the same bits as a blocking recv.
        let (out, _) = World::run(3, |ctx| {
            let next = (ctx.rank() + 1) % ctx.size();
            let prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
            let mut h = ctx.irecv(prev, 5);
            ctx.isend(next, 5, &[ctx.rank() as f64; 4]);
            let v = h.wait().unwrap();
            assert_eq!(h.src(), prev);
            v == vec![prev as f64; 4]
        });
        assert!(out.iter().all(|&ok| ok));
    }

    #[test]
    fn polled_receive_overlaps_compute_and_recovers_faults() {
        // The first transmission is dropped; a tight poll loop standing
        // in for interior compute must recover it via a *paced*
        // retransmission (budget 8 untouched despite thousands of
        // polls) and deliver bit-exact.
        let cfg = WorldConfig {
            faults: Some(CommFaultPlan::new(11).with_drop_rate(1.0).with_max_faults(1)),
            recv_timeout: Duration::from_secs(5),
            ..WorldConfig::default()
        };
        let (out, traffic) = World::run_cfg_ext(2, cfg, |ctx| {
            if ctx.rank() == 0 {
                ctx.isend(1, 3, &[1.0, 2.0, 3.0]);
                Ok::<_, CommError>(Vec::new())
            } else {
                let mut h = ctx.irecv(0, 3);
                let mut interior_work = 0.0f64;
                loop {
                    if let Some(v) = h.poll()? {
                        assert!(interior_work.is_finite());
                        return Ok(v);
                    }
                    for i in 0..64 {
                        interior_work += (i as f64).sqrt();
                    }
                }
            }
        });
        assert_eq!(out[1], Ok(vec![1.0, 2.0, 3.0]));
        assert!(traffic[1].retransmits >= 1, "recovery must go through a retransmit");
        assert!(traffic[1].retransmits <= 8, "polling must not flood the retransmit budget");
        assert_eq!(traffic[1].acks, 1);
    }

    #[test]
    fn malformed_payload_length_is_typed_error() {
        assert_eq!(
            decode_payload(0, 1, 7, &[1, 2, 3]),
            Err(CommError::Malformed { src: 0, dst: 1, tag: 7, len: 3 })
        );
        assert_eq!(decode_payload(0, 1, 7, &1.5f64.to_le_bytes()), Ok(vec![1.5]));
    }

    #[test]
    fn short_collective_reply_is_typed_error() {
        // A protocol violation (empty reply where the allreduce needs
        // one value) must degrade to a typed error, not a rank abort.
        let (out, _) = World::run(2, |ctx| {
            if ctx.rank() == 0 {
                matches!(
                    ctx.try_allreduce_sum(1.0),
                    Err(CommError::ShortCollective { src: 1, got: 0, need: 1, .. })
                )
            } else {
                ctx.send(0, COLL_BASE | COLL_ALLREDUCE, &[]);
                true
            }
        });
        assert!(out.iter().all(|&ok| ok));
    }

    #[test]
    fn fault_free_path_unchanged_with_plan_installed() {
        // A zero-rate plan must not perturb results or traffic.
        let cfg = WorldConfig { faults: Some(CommFaultPlan::new(9)), ..WorldConfig::default() };
        let (out, traffic) = World::run_cfg_ext(3, cfg, |ctx| {
            let s = ctx.allreduce_sum(ctx.rank() as f64);
            ctx.allgatherv(&[ctx.rank() as f64]).iter().map(|v| v[0]).sum::<f64>() + s
        });
        for v in out {
            assert_eq!(v, 6.0);
        }
        let total: u64 = traffic.iter().map(|t| t.messages).sum();
        assert!(total > 0);
        // Fault-free: not a single retransmission.
        assert!(traffic.iter().all(|t| t.retransmits == 0));
    }
}
