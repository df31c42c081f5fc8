//! Thread-per-peer socket I/O: the listener/reader side, the per-peer
//! writer threads with reconnect-and-backoff, and the peer liveness
//! board.
//!
//! This is the **only** file in the workspace outside st-bench allowed to
//! read the wall clock (`std::time::Instant`, scoped st-lint D2
//! exemption): socket timeouts, backoff, and liveness ages are inherently
//! wall-clock concerns. Nothing here feeds time back into protocol
//! decisions — the runtime's round barrier is driven purely by `Mark`
//! frames, so determinism of the decided chain never depends on timing.
//!
//! ## Waiting
//!
//! Nothing on the per-round path polls. A writer blocks on [`Outbound`]'s
//! work condvar, which a new batch signals, or a round change that may
//! release a batch a partition held back; the runtime
//! blocks on its flush condvar, which a writer signals after each flush.
//! A writer's wait times out after `IDLE` only so it can peek at its
//! stream: our peers never write on it, so a readable EOF means the peer
//! died, and the writer reconnects and replays without waiting for a
//! write to fail. Only reconnect backoff and listener re-binding sleep.
//!
//! ## Connection model
//!
//! For each ordered pair `(i, j)` node `i` dials node `j`'s listener and
//! uses that stream exclusively for `i → j` traffic, opening with a
//! `Hello{from: i}`. Writers send the node's outbound history — one
//! `(round, bytes)` batch per awake round — strictly in order, and on
//! reconnect **reset to the start of history**: the protocol layer
//! deduplicates whole round-batches by their trailing mark, so re-sending
//! everything is the simplest correct recovery (and what makes
//! kill/restart recovery WAL-free).

use crate::frame::{self, NodeFrame};
use crate::plan::ClusterPlan;
use st_messages::Envelope;
use st_types::ProcessId;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// One round's worth of envelopes from one peer, terminated by its mark.
pub type RoundBatch = (ProcessId, u64, Vec<Envelope>);

/// Longest a writer waits for work before it checks its peer is alive.
const IDLE: Duration = Duration::from_millis(1);
/// Reconnect backoff bounds.
const BACKOFF_MIN: Duration = Duration::from_millis(5);
const BACKOFF_MAX: Duration = Duration::from_millis(250);
/// Largest frame (bytes after the length prefix) accepted from a peer
/// that has said who it is. A frame is at most a round's multicast batch;
/// 16 MiB is far beyond any honest frame and bounds a corrupt length
/// prefix.
const MAX_FRAME: usize = 16 << 20;
/// Largest frame accepted before that: exactly an encoded `Hello`
/// (version, kind, `from: u32`). A connection cannot make the reader
/// allocate more than this until it has sent a valid, in-range one.
const HELLO_FRAME: usize = 6;

/// Point-in-time view of one peer link, for diagnostics and the cluster
/// report.
#[derive(Clone, Debug, Default, serde::Serialize, serde::Deserialize)]
pub struct PeerStat {
    /// Whether the outbound stream is currently connected.
    pub connected: bool,
    /// Completed (re)connect attempts beyond the first.
    pub reconnects: u64,
    /// Batches fully written and flushed on the current connection.
    pub batches_sent: u64,
    /// Milliseconds since the last inbound frame from this peer
    /// (`u64::MAX` = never heard).
    pub heard_ms_ago: u64,
}

struct PeerState {
    connected: AtomicBool,
    reconnects: AtomicU64,
    batches_sent: AtomicU64,
    /// ms since board creation of the last inbound frame; u64::MAX never.
    heard_at_ms: AtomicU64,
}

/// Shared liveness board: writers and readers record link state, the
/// runtime snapshots it for the node's final report.
pub struct Liveness {
    peers: Vec<PeerState>,
    epoch: Instant,
}

impl Liveness {
    /// A board for `n` peers (indexed by process id).
    pub fn new(n: usize) -> Liveness {
        Liveness {
            peers: (0..n)
                .map(|_| PeerState {
                    connected: AtomicBool::new(false),
                    reconnects: AtomicU64::new(0),
                    batches_sent: AtomicU64::new(0),
                    heard_at_ms: AtomicU64::new(u64::MAX),
                })
                .collect(),
            epoch: Instant::now(),
        }
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Records an inbound frame from `p`.
    pub fn heard(&self, p: usize) {
        self.peers[p]
            .heard_at_ms
            .store(self.now_ms(), Ordering::Relaxed);
    }

    /// Snapshots every peer's link state.
    pub fn snapshot(&self) -> Vec<PeerStat> {
        let now = self.now_ms();
        self.peers
            .iter()
            .map(|p| PeerStat {
                connected: p.connected.load(Ordering::Relaxed),
                reconnects: p.reconnects.load(Ordering::Relaxed),
                batches_sent: p.batches_sent.load(Ordering::Relaxed),
                heard_ms_ago: match p.heard_at_ms.load(Ordering::Relaxed) {
                    u64::MAX => u64::MAX,
                    at => now.saturating_sub(at),
                },
            })
            .collect()
    }
}

/// The node's outbound history: one immutable `(round, bytes)` batch per
/// completed awake round, shared read-only by every writer thread, plus
/// the two events around it. Writers wait on `work`, which [`push`]
/// signals (a new batch) and [`set_round`] signals when a writer is held
/// back by a partition (the round change may release it). The runtime
/// waits on `flush`, which a writer signals after each flushed batch and
/// on disconnect.
///
/// [`push`]: Outbound::push
/// [`set_round`]: Outbound::set_round
pub struct Outbound {
    state: Mutex<History>,
    work: Condvar,
    flush: Condvar,
}

struct History {
    batches: Vec<(u64, Arc<Vec<u8>>)>,
    /// The sender's current round (for `ClusterPlan::withheld`).
    round: u64,
    /// Whether a writer waits on a batch a partition holds back (only
    /// then does a round change need to wake the writers).
    held: bool,
    /// Per peer: batches fully flushed on the live connection (0 while
    /// it is down).
    flushed: Vec<u64>,
}

impl Outbound {
    /// An empty history at round 0, for a cluster of `n` nodes.
    pub fn new(n: usize) -> Outbound {
        Outbound {
            state: Mutex::new(History {
                batches: Vec::new(),
                round: 0,
                held: false,
                flushed: vec![0; n],
            }),
            work: Condvar::new(),
            flush: Condvar::new(),
        }
    }

    /// The history, whatever thread last held it: every update is a
    /// single assignment or push, so a panic elsewhere cannot leave it
    /// half-written.
    fn lock(&self) -> MutexGuard<'_, History> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends the batch for `round` (its envelopes plus trailing mark)
    /// and wakes the writers.
    pub fn push(&self, round: u64, bytes: Vec<u8>) {
        self.lock().batches.push((round, Arc::new(bytes)));
        self.work.notify_all();
    }

    /// Enters `round`: it is what releases a batch a partition held back,
    /// so it wakes the writers if one is waiting on such a batch.
    pub fn set_round(&self, round: u64) {
        let mut h = self.lock();
        h.round = round;
        if std::mem::take(&mut h.held) {
            drop(h);
            self.work.notify_all();
        }
    }

    /// Number of batches in history.
    pub fn len(&self) -> usize {
        self.lock().batches.len()
    }

    /// Whether no batch was pushed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Blocks until `lagging(flushed counts)` is false or `cap` has
    /// passed; re-checked after every flush or disconnect of any writer.
    pub fn wait_flushed(&self, cap: Duration, mut lagging: impl FnMut(&[u64]) -> bool) {
        let _ = self
            .flush
            .wait_timeout_while(self.lock(), cap, |h| lagging(&h.flushed))
            .unwrap_or_else(PoisonError::into_inner);
    }

    /// Batch `cursor` once it exists and `withheld(its round, current
    /// round)` is false; `None` if that does not happen within `timeout`.
    fn next(
        &self,
        cursor: usize,
        timeout: Duration,
        withheld: impl Fn(u64, u64) -> bool,
    ) -> Option<Arc<Vec<u8>>> {
        let (h, _) = self
            .work
            .wait_timeout_while(self.lock(), timeout, |h| {
                let Some(&(s, _)) = h.batches.get(cursor) else {
                    return true;
                };
                let held = withheld(s, h.round);
                h.held |= held;
                held
            })
            .unwrap_or_else(PoisonError::into_inner);
        h.batches
            .get(cursor)
            .filter(|(s, _)| !withheld(*s, h.round))
            .map(|(_, bytes)| bytes.clone())
    }

    /// Publishes that `count` batches are flushed to peer `j` on its
    /// live connection (0: the connection is gone).
    fn set_flushed(&self, j: usize, count: u64) {
        self.lock().flushed[j] = count;
        self.flush.notify_all();
    }
}

/// Binds the node's listener, retrying briefly (a restarted node may race
/// lingering sockets from its previous life).
pub fn bind_listener(port: u16) -> std::io::Result<TcpListener> {
    let addr = format!("127.0.0.1:{port}");
    let mut last = None;
    for _ in 0..400 {
        match TcpListener::bind(&addr) {
            Ok(l) => return Ok(l),
            Err(e) => {
                last = Some(e);
                thread::sleep(Duration::from_millis(25));
            }
        }
    }
    Err(last.unwrap_or_else(|| std::io::Error::other("bind failed")))
}

/// Accept loop: every inbound connection must open with `Hello{from}`;
/// each then gets a reader thread that groups `Env` frames into round
/// batches closed by their trailing `Mark` and forwards them to `inbox`.
/// Batches cut off by a disconnect (no trailing mark) are discarded — the
/// peer's writer re-sends the whole history on reconnect.
pub fn spawn_listener(
    listener: TcpListener,
    inbox: Sender<RoundBatch>,
    board: Arc<Liveness>,
) -> thread::JoinHandle<()> {
    thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            let inbox = inbox.clone();
            let board = board.clone();
            thread::spawn(move || read_peer(stream, inbox, board));
        }
    })
}

fn read_peer(mut stream: TcpStream, inbox: Sender<RoundBatch>, board: Arc<Liveness>) {
    let Some(first) = read_frame(&mut stream, HELLO_FRAME) else {
        return;
    };
    let Ok(NodeFrame::Hello { from }) = frame::decode_frame(&first) else {
        return; // not one of ours; drop the connection
    };
    // `from` is unauthenticated outside input and indexes the liveness
    // board (and the runtime's per-peer inboxes): a claimed id outside
    // the cluster is dropped at hello, before any of its frames is read.
    if from.index() >= board.peers.len() {
        return;
    }
    let mut pending: Vec<Envelope> = Vec::new();
    while let Some(bytes) = read_frame(&mut stream, MAX_FRAME) {
        board.heard(from.index());
        match frame::decode_frame(&bytes) {
            Ok(NodeFrame::Env(env)) => pending.push(env),
            Ok(NodeFrame::Mark { round }) => {
                let batch = std::mem::take(&mut pending);
                if inbox.send((from, round, batch)).is_err() {
                    return; // runtime finished; stop reading
                }
            }
            Ok(NodeFrame::Hello { .. }) | Err(_) => return, // protocol error
        }
    }
}

/// Reads one full frame (length prefix + that many bytes, at most `cap`);
/// `None` on EOF, any transport error, or a length prefix outside
/// `2..=cap` — checked before anything is allocated for the body.
fn read_frame(stream: &mut TcpStream, cap: usize) -> Option<Vec<u8>> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).ok()?;
    let n = u32::from_le_bytes(len) as usize;
    if !(2..=cap).contains(&n) {
        return None;
    }
    let mut frame = vec![0u8; 4 + n];
    frame[..4].copy_from_slice(&len);
    stream.read_exact(&mut frame[4..]).ok()?;
    Some(frame)
}

/// Whether the peer behind our `i → j` stream is gone. The peer never
/// writes on it, so a readable EOF or a reset means it died or hung up.
/// A non-blocking peek, so checking a live idle peer never blocks.
fn peer_gone(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let gone = match stream.peek(&mut [0u8; 1]) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) => e.kind() != std::io::ErrorKind::WouldBlock,
    };
    gone || stream.set_nonblocking(false).is_err()
}

/// Spawns the writer thread for peer `j`: dials `j`'s listener with
/// exponential backoff, opens with `Hello`, then streams the outbound
/// history in order — restarting from the beginning on every reconnect —
/// while honouring partition holdback. It waits on `outbound` for work;
/// on a wait that times out it checks the peer is still alive
/// (`peer_gone`), so a survivor that has nothing left to send still
/// reconnects to a killed and restarted peer. After each flush it
/// publishes how many batches are on the live connection (the runtime's
/// best-effort "round data is on the wire" signal).
pub fn spawn_writer(
    me: ProcessId,
    j: usize,
    plan: Arc<ClusterPlan>,
    outbound: Arc<Outbound>,
    board: Arc<Liveness>,
) -> thread::JoinHandle<()> {
    thread::spawn(move || {
        let addr = format!("127.0.0.1:{}", plan.port_of(j));
        let hello = frame::encode_frame(&NodeFrame::Hello { from: me });
        let mut backoff = BACKOFF_MIN;
        let mut first_attempt = true;
        loop {
            let Ok(mut stream) = TcpStream::connect(&addr) else {
                // Exponential backoff while the peer is down.
                thread::sleep(backoff);
                backoff = (backoff * 2).min(BACKOFF_MAX);
                continue;
            };
            // A connection resets the backoff, so redialing a peer that
            // died follows one schedule (5, 15, 35, … ms after it went
            // away) however many dials start-up took.
            backoff = BACKOFF_MIN;
            let _ = stream.set_nodelay(true);
            if !first_attempt {
                board.peers[j].reconnects.fetch_add(1, Ordering::Relaxed);
            }
            first_attempt = false;
            if stream.write_all(&hello).is_err() {
                continue;
            }
            board.peers[j].connected.store(true, Ordering::Relaxed);
            outbound.set_flushed(j, 0);
            let mut cursor = 0usize;
            loop {
                let withheld = |s, current| plan.withheld(s, me.index(), j, current);
                let Some(bytes) = outbound.next(cursor, IDLE, withheld) else {
                    if peer_gone(&stream) {
                        break;
                    }
                    continue;
                };
                if stream
                    .write_all(&bytes)
                    .and_then(|_| stream.flush())
                    .is_err()
                {
                    break;
                }
                cursor += 1;
                board.peers[j]
                    .batches_sent
                    .store(cursor as u64, Ordering::Relaxed);
                outbound.set_flushed(j, cursor as u64);
            }
            board.peers[j].connected.store(false, Ordering::Relaxed);
            outbound.set_flushed(j, 0);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_crypto::Keypair;
    use st_messages::{Payload, Vote};
    use st_types::{BlockId, Round};

    /// Runs `client` against one accepted connection; `read_peer` serves
    /// it **on the test thread** (in production it runs detached, where a
    /// panic would go unseen). Returns what the client returned.
    fn serve<T: Send + 'static>(
        listener: &TcpListener,
        inbox: &Sender<RoundBatch>,
        board: &Arc<Liveness>,
        client: impl FnOnce(TcpStream) -> T + Send + 'static,
    ) -> T {
        let addr = listener.local_addr().expect("bound listener");
        let client = thread::spawn(move || {
            client(TcpStream::connect(addr).expect("connect to test listener"))
        });
        let (stream, _) = listener.accept().expect("accept test client");
        read_peer(stream, inbox.clone(), board.clone());
        client.join().expect("client thread")
    }

    /// A client that claims to be `from`, sends one well-formed envelope
    /// and `Mark{1}`, and hangs up.
    fn serve_one(
        listener: &TcpListener,
        from: ProcessId,
        inbox: &Sender<RoundBatch>,
        board: &Arc<Liveness>,
    ) {
        let vote = Vote::new(ProcessId::new(0), Round::new(1), BlockId::GENESIS);
        let env = Envelope::sign(&Keypair::derive(ProcessId::new(0), 7), Payload::Vote(vote));
        let frames = [
            NodeFrame::Hello { from },
            NodeFrame::Env(env),
            NodeFrame::Mark { round: 1 },
        ];
        serve(listener, inbox, board, move |mut stream| {
            // The reader may legitimately hang up on us mid-stream.
            let _ = frames
                .iter()
                .try_for_each(|f| stream.write_all(&frame::encode_frame(f)));
        });
    }

    #[test]
    fn hello_claiming_an_id_outside_the_cluster_is_dropped() {
        let n = 3;
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
        let board = Arc::new(Liveness::new(n));
        let (tx, inbox) = std::sync::mpsc::channel::<RoundBatch>();

        // Rogue id n + 3: nothing reaches the inbox or the board, and the
        // reader returns instead of indexing out of range.
        serve_one(&listener, ProcessId::new(n as u32 + 3), &tx, &board);
        assert!(inbox.try_recv().is_err(), "rogue batch reached the inbox");
        assert!(board.snapshot().iter().all(|p| p.heard_ms_ago == u64::MAX));

        // A genuine peer served afterwards still gets its batch through.
        let peer = ProcessId::new(1);
        serve_one(&listener, peer, &tx, &board);
        let (from, round, batch) = inbox.try_recv().expect("genuine batch delivered");
        assert_eq!((from, round, batch.len()), (peer, 1, 1));
        assert_ne!(board.snapshot()[1].heard_ms_ago, u64::MAX);
    }

    #[test]
    fn a_round_change_releases_a_held_back_writer() {
        let outbound = Arc::new(Outbound::new(2));
        outbound.push(8, vec![1]);
        let writer = outbound.clone();
        let (tx, rx) = std::sync::mpsc::channel();
        thread::spawn(move || {
            // Held back while the sender is at or before round 10.
            let held = |s, current| s == 8 && current <= 10;
            let _ = tx.send(writer.next(0, Duration::from_secs(60), held));
        });
        outbound.set_round(9);
        // `held` is set under the lock just before the writer waits, so
        // once it is seen the writer is waiting on the round-8 batch.
        while !outbound.lock().held {
            thread::yield_now();
        }
        assert!(rx.try_recv().is_err(), "still held back at round 9");
        outbound.set_round(11);
        let got = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the round change woke the writer");
        assert_eq!(got.as_deref(), Some(&vec![1]));
    }

    /// Accepts one connection on `listener`, or `None` after 5 s.
    fn accept_within_5s(listener: &TcpListener) -> Option<TcpStream> {
        listener
            .set_nonblocking(true)
            .expect("non-blocking listener");
        for _ in 0..5_000 {
            if let Ok((stream, _)) = listener.accept() {
                stream.set_nonblocking(false).expect("blocking stream");
                return Some(stream);
            }
            thread::sleep(Duration::from_millis(1));
        }
        None
    }

    #[test]
    fn an_idle_writer_reconnects_to_a_peer_that_died() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
        let mut plan = ClusterPlan::full(2, 4);
        plan.base_port = listener.local_addr().expect("bound listener").port();
        let outbound = Arc::new(Outbound::new(2));
        let batch = frame::encode_frame(&NodeFrame::Mark { round: 0 });
        outbound.push(0, batch.clone());
        // Node 1's writer to node 0, which listens on `base_port + 0`.
        let board = Arc::new(Liveness::new(2));
        spawn_writer(ProcessId::new(1), 0, Arc::new(plan), outbound, board);

        let hello = frame::encode_frame(&NodeFrame::Hello {
            from: ProcessId::new(1),
        });
        let expect = [hello, batch].concat();
        let read_all = |mut stream: TcpStream| {
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .expect("set read timeout");
            let mut got = vec![0u8; expect.len()];
            stream.read_exact(&mut got).expect("hello + batch");
            got
        };
        let first = accept_within_5s(&listener).expect("first connection");
        assert_eq!(read_all(first), expect);
        // The first stream is dropped: the peer "died". Nothing new is
        // pushed, so only the idle writer's liveness check can notice.
        let second = accept_within_5s(&listener).expect("the idle writer reconnected");
        assert_eq!(read_all(second), expect, "history replayed from its start");
    }

    #[test]
    fn oversized_length_before_hello_is_dropped_unread() {
        // The pre-hello cap is exactly an encoded hello, nothing larger.
        let hello = frame::encode_frame(&NodeFrame::Hello {
            from: ProcessId::new(0),
        });
        assert_eq!(hello.len(), 4 + HELLO_FRAME);

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
        let board = Arc::new(Liveness::new(3));
        let (tx, inbox) = std::sync::mpsc::channel::<RoundBatch>();

        // A stranger's first four bytes announce the post-hello maximum
        // and nothing follows. The reader must hang up on the prefix
        // alone; one that allocates 16 MiB and waits for the body leaves
        // the client's read pending until its timeout instead.
        let hung_up = serve(&listener, &tx, &board, |mut stream| {
            stream
                .write_all(&(MAX_FRAME as u32).to_le_bytes())
                .expect("send length prefix");
            stream
                .set_read_timeout(Some(Duration::from_secs(2)))
                .expect("set client timeout");
            // EOF or a reset is the hang-up; only the timeout is not.
            !matches!(
                stream.read(&mut [0u8; 1]),
                Err(e) if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                )
            )
        });
        assert!(hung_up, "reader waited for a 16 MiB body before any hello");
        assert!(inbox.try_recv().is_err());

        // A genuine peer served afterwards still gets its batch through.
        let peer = ProcessId::new(2);
        serve_one(&listener, peer, &tx, &board);
        let (from, round, batch) = inbox.try_recv().expect("genuine batch delivered");
        assert_eq!((from, round, batch.len()), (peer, 1, 1));
    }
}
