//! The supplicant-mediated loopback network.
//!
//! The GP sockets API in OP-TEE is implemented by bouncing traffic through
//! the normal-world `tee-supplicant` daemon over a small shared-memory
//! buffer (§V). The verifier additionally needs a normal-world *listener*
//! because the GP API cannot accept incoming connections.
//!
//! This module models that plumbing as an in-process message network:
//! message-oriented, byte-copying (every message is copied in and out, like
//! the shared buffer), and blocking with a timeout so misbehaving peers
//! surface as errors instead of hangs.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;

use crate::TeeError;

/// Default receive timeout.
pub const RECV_TIMEOUT: Duration = Duration::from_secs(10);

/// How long the `watz-fleet` acceptor blocks in one accept before it
/// re-checks its stop flag: a liveness backstop, not a poll cadence, since
/// the accept wakes at once on a connection or when the port is unbound.
pub const DEFAULT_ACCEPT_POLL: Duration = Duration::from_millis(25);

/// Accept backlog of [`Network::listen`]: how many established but
/// not-yet-accepted connections a listener buffers before further
/// [`Network::connect`] calls block. Sized for fleet-scale connect storms
/// (hundreds of devices dialling one verifier at once) — a backlog of 16,
/// as previously hard-coded, made a 96-device storm serialize on the
/// acceptor and polluted client-observed latency percentiles.
const ACCEPT_BACKLOG: usize = 1024;

type Channel = (Sender<Vec<u8>>, Receiver<Vec<u8>>);

/// xorshift64: the repo-standard deterministic PRNG (no external crates).
/// `state` must be non-zero.
fn xorshift64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// splitmix64 finalizer: stretches a structured seed (plan seed XOR
/// connection id) into a well-mixed xorshift state.
fn mix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Converts a probability in `[0.0, 1.0]` to a threshold comparable against
/// the top 32 bits of an xorshift draw. `1.0` maps to `2^32`, which every
/// 32-bit draw is below, so a rate of exactly 1.0 always fires.
fn fault_threshold(rate: f64) -> u64 {
    (rate.clamp(0.0, 1.0) * 4_294_967_296.0) as u64
}

/// The class of an injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The message was silently discarded; the sender saw `Ok`.
    Drop,
    /// Delivery was delayed (the sending thread slept, modelling a slow
    /// supplicant buffer) but the payload arrived intact.
    Delay,
    /// One or more payload bytes were flipped in flight.
    Corrupt,
    /// The message was delivered twice.
    Duplicate,
    /// The endpoint was killed mid-handshake: the send failed and every
    /// later operation on this end reports a disconnect.
    Disconnect,
}

/// Which half of the connection performed the faulted send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDir {
    /// The dialling side's send (supplicant → verifier).
    ClientToServer,
    /// The accepting side's send (verifier → supplicant).
    ServerToClient,
}

/// One injected fault, recorded in the network-wide fault log so tests can
/// assert exactly what the plan did to each connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Connection index, in dial order since the plan was installed.
    pub conn: u64,
    /// Direction of the faulted send.
    pub dir: FaultDir,
    /// Send-operation index on that endpoint (0 = first send).
    pub seq: u64,
    /// What was injected.
    pub kind: FaultKind,
}

/// A seeded, deterministic fault-injection plan.
///
/// Installed per-[`Network`] with [`Network::install_fault_plan`]; every
/// connection dialled *after* the install carries two fault hooks (one per
/// direction), each with its own xorshift stream derived from
/// `(plan seed, connection index, direction)`. Fault decisions therefore
/// depend only on the seed, the connection's dial order, and the message
/// sequence on that endpoint — never on thread timing — so a failing chaos
/// run is reproducible from its seed alone.
///
/// All faults are applied at the `send` boundary (an injected disconnect
/// also poisons the endpoint's receive side). With no plan installed,
/// connections carry no hook and the send/recv paths cost one `Option`
/// check — zero overhead for every existing benchmark.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    drop_t: u64,
    delay_t: u64,
    max_delay: Duration,
    corrupt_t: u64,
    corrupt_bytes: usize,
    duplicate_t: u64,
    disconnect_t: u64,
}

impl FaultPlan {
    /// A plan that injects nothing; chain rate builders to arm faults.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_t: 0,
            delay_t: 0,
            max_delay: Duration::ZERO,
            corrupt_t: 0,
            corrupt_bytes: 1,
            duplicate_t: 0,
            disconnect_t: 0,
        }
    }

    /// The seed the plan was built with (printed by soak tests on failure).
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Probability per send that the message is silently discarded.
    #[must_use]
    pub fn drop_rate(mut self, rate: f64) -> Self {
        self.drop_t = fault_threshold(rate);
        self
    }

    /// Probability per send of a deterministic delay, uniform in
    /// `[0, max_delay]`. The delay blocks the sending thread.
    #[must_use]
    pub fn delay_rate(mut self, rate: f64, max_delay: Duration) -> Self {
        self.delay_t = fault_threshold(rate);
        self.max_delay = max_delay;
        self
    }

    /// Probability per send that `bytes` payload bytes are flipped (each
    /// XORed with a non-zero mask, so the payload always differs).
    #[must_use]
    pub fn corrupt_rate(mut self, rate: f64, bytes: usize) -> Self {
        self.corrupt_t = fault_threshold(rate);
        self.corrupt_bytes = bytes.max(1);
        self
    }

    /// Probability per send that the message is delivered twice.
    #[must_use]
    pub fn duplicate_rate(mut self, rate: f64) -> Self {
        self.duplicate_t = fault_threshold(rate);
        self
    }

    /// Probability per send that the endpoint is killed mid-handshake:
    /// the send fails with [`TeeError::Net`] and every later send/recv on
    /// this end reports a disconnect.
    #[must_use]
    pub fn disconnect_rate(mut self, rate: f64) -> Self {
        self.disconnect_t = fault_threshold(rate);
        self
    }
}

/// xorshift state + send counter for one faulted endpoint.
#[derive(Debug)]
struct FaultRng {
    state: u64,
    seq: u64,
}

/// Per-endpoint fault machinery, attached to a [`Connection`] at dial time
/// when a plan is installed.
#[derive(Debug)]
struct FaultHook {
    plan: FaultPlan,
    conn: u64,
    dir: FaultDir,
    rng: Mutex<FaultRng>,
    dead: AtomicBool,
    log: Arc<Mutex<Vec<FaultEvent>>>,
}

impl FaultHook {
    fn new(plan: &FaultPlan, conn: u64, dir: FaultDir, log: Arc<Mutex<Vec<FaultEvent>>>) -> Self {
        let lane = conn
            .wrapping_mul(2)
            .wrapping_add(matches!(dir, FaultDir::ServerToClient) as u64);
        FaultHook {
            plan: plan.clone(),
            conn,
            dir,
            rng: Mutex::new(FaultRng {
                state: mix64(plan.seed ^ mix64(lane)) | 1,
                seq: 0,
            }),
            dead: AtomicBool::new(false),
            log,
        }
    }

    fn record(&self, seq: u64, kind: FaultKind) {
        self.log.lock().push(FaultEvent {
            conn: self.conn,
            dir: self.dir,
            seq,
            kind,
        });
    }
}

/// Fault-plan install state: the plan plus the dial-order counter that
/// assigns connection indices.
#[derive(Debug)]
struct FaultInstall {
    plan: FaultPlan,
    next_conn: u64,
}

/// The loopback network shared by every party on a device (and, in tests,
/// between "devices" that share a `Network`).
#[derive(Debug)]
pub struct Network {
    listeners: Mutex<HashMap<u16, Sender<Connection>>>,
    fault: Mutex<Option<FaultInstall>>,
    fault_log: Arc<Mutex<Vec<FaultEvent>>>,
}

impl Network {
    /// An empty network.
    #[must_use]
    pub fn new() -> Self {
        Network {
            listeners: Mutex::new(HashMap::new()),
            fault: Mutex::new(None),
            fault_log: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Installs a fault plan. Connections dialled after this call carry
    /// fault hooks; connections that already exist are unaffected (their
    /// hooks, if any, came from the previously installed plan). The
    /// connection-index counter restarts at 0 on every install.
    pub fn install_fault_plan(&self, plan: FaultPlan) {
        *self.fault.lock() = Some(FaultInstall { plan, next_conn: 0 });
    }

    /// Removes the installed fault plan. Connections dialled afterwards
    /// are clean; already-dialled connections keep their hooks.
    pub fn clear_fault_plan(&self) {
        *self.fault.lock() = None;
    }

    /// Drains and returns every fault injected since the log was last
    /// drained.
    #[must_use]
    pub fn take_fault_log(&self) -> Vec<FaultEvent> {
        std::mem::take(&mut *self.fault_log.lock())
    }

    /// Binds a listener on `port` buffering at most
    /// `ACCEPT_BACKLOG` (1024) established but not-yet-accepted
    /// connections; while the backlog is full, further
    /// [`Network::connect`] calls block until the listener accepts (the
    /// loopback analogue of a full SYN queue).
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::Net`] if the port is already bound.
    pub fn listen(&self, port: u16) -> Result<Listener, TeeError> {
        let mut listeners = self.listeners.lock();
        if listeners.contains_key(&port) {
            return Err(TeeError::Net(format!("port {port} already bound")));
        }
        let (tx, rx) = bounded(ACCEPT_BACKLOG);
        listeners.insert(port, tx);
        Ok(Listener { accept_rx: rx })
    }

    /// Unbinds the listener on `port`.
    pub fn unbind(&self, port: u16) {
        self.listeners.lock().remove(&port);
    }

    /// True if a listener is currently bound on `port`.
    #[must_use]
    pub fn is_bound(&self, port: u16) -> bool {
        self.listeners.lock().contains_key(&port)
    }

    /// The ports with bound listeners (sorted; diagnostics and shard
    /// bookkeeping).
    #[must_use]
    pub fn bound_ports(&self) -> Vec<u16> {
        let mut ports: Vec<u16> = self.listeners.lock().keys().copied().collect();
        ports.sort_unstable();
        ports
    }

    /// Connects to the listener on `port`.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::Net`] if nothing is listening.
    pub fn connect(&self, port: u16) -> Result<Connection, TeeError> {
        let accept_tx = {
            let listeners = self.listeners.lock();
            listeners
                .get(&port)
                .cloned()
                .ok_or_else(|| TeeError::Net(format!("connection refused on port {port}")))?
        };
        let (client_hook, server_hook) = {
            let mut fault = self.fault.lock();
            match fault.as_mut() {
                None => (None, None),
                Some(install) => {
                    let conn = install.next_conn;
                    install.next_conn += 1;
                    (
                        Some(Box::new(FaultHook::new(
                            &install.plan,
                            conn,
                            FaultDir::ClientToServer,
                            Arc::clone(&self.fault_log),
                        ))),
                        Some(Box::new(FaultHook::new(
                            &install.plan,
                            conn,
                            FaultDir::ServerToClient,
                            Arc::clone(&self.fault_log),
                        ))),
                    )
                }
            }
        };
        let (c2s_tx, c2s_rx): Channel = bounded(64);
        let (s2c_tx, s2c_rx): Channel = bounded(64);
        let server_side = Connection {
            tx: s2c_tx,
            rx: c2s_rx,
            faults: server_hook,
        };
        accept_tx
            .send(server_side)
            .map_err(|_| TeeError::Net(format!("listener on port {port} is gone")))?;
        Ok(Connection {
            tx: c2s_tx,
            rx: s2c_rx,
            faults: client_hook,
        })
    }
}

impl Default for Network {
    fn default() -> Self {
        Self::new()
    }
}

/// A bound listener.
#[derive(Debug)]
pub struct Listener {
    accept_rx: Receiver<Connection>,
}

impl Listener {
    /// Accepts the next incoming connection (blocking, with timeout).
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::Net`] on timeout.
    pub fn accept(&self) -> Result<Connection, TeeError> {
        self.accept_detailed(RECV_TIMEOUT).map_err(|e| match e {
            RecvError::TimedOut => TeeError::Net("accept timed out".into()),
            RecvError::Disconnected => TeeError::Net("listener closed (port unbound)".into()),
        })
    }

    /// Accepts with a timeout, distinguishing "nobody dialled in time"
    /// from "the port was unbound under us" — the latter is an
    /// event-driven server's shutdown signal, so it can block on a long
    /// accept instead of polling a stop flag.
    ///
    /// # Errors
    ///
    /// [`RecvError::TimedOut`] when the timeout elapses;
    /// [`RecvError::Disconnected`] once the port is unbound (buffered
    /// connections are still delivered first).
    pub fn accept_detailed(&self, timeout: Duration) -> Result<Connection, RecvError> {
        use crossbeam::channel::RecvTimeoutError;
        self.accept_rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => RecvError::TimedOut,
            RecvTimeoutError::Disconnected => RecvError::Disconnected,
        })
    }
}

/// One end of an established connection (message-oriented).
#[derive(Debug)]
pub struct Connection {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    /// Fault hook from the plan installed when this connection was
    /// dialled; `None` (the common case) costs one branch per operation.
    faults: Option<Box<FaultHook>>,
}

impl Connection {
    /// Sends one message (copied, like the supplicant's shared buffer).
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::Net`] if the peer hung up (or an injected
    /// disconnect killed this endpoint).
    pub fn send(&self, data: &[u8]) -> Result<(), TeeError> {
        self.send_owned(data.to_vec())
    }

    /// [`Connection::send`] for a message the caller is done with: the
    /// buffer itself is delivered, not a copy of it.
    ///
    /// # Errors
    ///
    /// As [`Connection::send`].
    pub fn send_owned(&self, data: Vec<u8>) -> Result<(), TeeError> {
        match &self.faults {
            None => self
                .tx
                .send(data)
                .map_err(|_| TeeError::Net("peer disconnected".into())),
            Some(hook) => self.send_faulty(hook, data),
        }
    }

    /// The faulted send path: draws one decision per fault class in a
    /// fixed order (disconnect, drop, corrupt, duplicate, delay) so the
    /// schedule depends only on `(seed, connection, seq)`, then applies
    /// whatever fired. Corruption mutates the message this endpoint owns:
    /// [`Connection::send`] copied it, [`Connection::send_owned`] was given
    /// it.
    fn send_faulty(&self, hook: &FaultHook, mut payload: Vec<u8>) -> Result<(), TeeError> {
        if hook.dead.load(Ordering::Relaxed) {
            return Err(TeeError::Net("peer disconnected".into()));
        }
        let plan = &hook.plan;
        let mut g = hook.rng.lock();
        let seq = g.seq;
        g.seq += 1;
        let (disconnect, drop_it, corrupt, duplicate, delay) = {
            let mut fire = |threshold: u64| (xorshift64(&mut g.state) >> 32) < threshold;
            (
                fire(plan.disconnect_t),
                fire(plan.drop_t),
                fire(plan.corrupt_t),
                fire(plan.duplicate_t),
                fire(plan.delay_t),
            )
        };
        if disconnect {
            drop(g);
            hook.dead.store(true, Ordering::Relaxed);
            hook.record(seq, FaultKind::Disconnect);
            return Err(TeeError::Net("peer disconnected".into()));
        }
        if drop_it {
            drop(g);
            hook.record(seq, FaultKind::Drop);
            return Ok(());
        }
        if corrupt && !payload.is_empty() {
            for _ in 0..plan.corrupt_bytes {
                let r = xorshift64(&mut g.state);
                let pos = (r as usize) % payload.len();
                // OR 1 keeps the mask non-zero, so the byte always changes.
                let mask = (((r >> 32) & 0xFF) as u8) | 1;
                payload[pos] ^= mask;
            }
        }
        let delay_for = delay.then(|| {
            let frac = ((xorshift64(&mut g.state) >> 40) as f64) / ((1u64 << 24) as f64);
            plan.max_delay.mul_f64(frac)
        });
        drop(g);
        if corrupt && !payload.is_empty() {
            hook.record(seq, FaultKind::Corrupt);
        }
        if let Some(d) = delay_for {
            hook.record(seq, FaultKind::Delay);
            std::thread::sleep(d);
        }
        // Copy the frame only when the duplicate fault fired.
        let copy = duplicate.then(|| payload.clone());
        self.tx
            .send(payload)
            .map_err(|_| TeeError::Net("peer disconnected".into()))?;
        if let Some(copy) = copy {
            hook.record(seq, FaultKind::Duplicate);
            // Peer may legitimately vanish between the copies.
            let _ = self.tx.send(copy);
        }
        Ok(())
    }

    /// Closes the receive half only (`shutdown(SHUT_RD)`): from now on the
    /// peer's sends fail exactly as if this end had hung up, while this end
    /// can still send. Lets a client order "stop listening" strictly before
    /// its last message instead of racing the peer's reply with a drop.
    pub fn shutdown_recv(&mut self) {
        // The replacement's sender is dropped on the spot, so local
        // receives report a disconnect as well.
        self.rx = bounded(1).1;
    }

    /// True once an injected disconnect has killed this endpoint.
    fn fault_killed(&self) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|h| h.dead.load(Ordering::Relaxed))
    }

    /// Receives one message (blocking, with timeout).
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::Net`] on timeout or hangup, with
    /// distinguishable messages (`"receive timed out"` vs
    /// `"peer disconnected"`); use [`Connection::recv_detailed`] to
    /// branch on the cause without string matching.
    pub fn recv(&self) -> Result<Vec<u8>, TeeError> {
        self.recv_detailed(RECV_TIMEOUT).map_err(|e| match e {
            RecvError::TimedOut => TeeError::Net("receive timed out".into()),
            RecvError::Disconnected => TeeError::Net("peer disconnected".into()),
        })
    }

    /// Receives one message with a timeout, distinguishing a quiet peer
    /// from a gone one — the blocking counterpart of
    /// [`Connection::try_recv_detailed`]. Buffered messages are delivered
    /// before a hangup is reported.
    ///
    /// # Errors
    ///
    /// [`RecvError::TimedOut`] when the timeout elapses with the peer
    /// still connected; [`RecvError::Disconnected`] once the peer dropped
    /// its end and the buffer is drained.
    pub fn recv_detailed(&self, timeout: Duration) -> Result<Vec<u8>, RecvError> {
        use crossbeam::channel::RecvTimeoutError;
        if self.fault_killed() {
            return Err(RecvError::Disconnected);
        }
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => RecvError::TimedOut,
            RecvTimeoutError::Disconnected => RecvError::Disconnected,
        })
    }

    /// The underlying receive channel, for registration in a
    /// [`crossbeam::channel::Select`]: event-driven servers add every
    /// session's receiver (plus their own admission channels) to one
    /// select and sleep until a real message, hangup, or deadline —
    /// instead of busy-polling [`Connection::try_recv_detailed`].
    #[must_use]
    pub fn receiver(&self) -> &Receiver<Vec<u8>> {
        &self.rx
    }

    /// Non-blocking receive that distinguishes an idle peer from a gone
    /// one, so polling servers can evict dead connections immediately
    /// instead of waiting out their session deadline.
    ///
    /// Buffered messages are still delivered before
    /// [`TryRecv::Disconnected`] is reported.
    pub fn try_recv_detailed(&self) -> TryRecv {
        use crossbeam::channel::TryRecvError;
        if self.fault_killed() {
            return TryRecv::Disconnected;
        }
        match self.rx.try_recv() {
            Ok(data) => TryRecv::Message(data),
            Err(TryRecvError::Empty) => TryRecv::Empty,
            Err(TryRecvError::Disconnected) => TryRecv::Disconnected,
        }
    }
}

/// Why a blocking receive/accept returned without data — the timeout/
/// hangup distinction [`TryRecv`] draws for the non-blocking path,
/// extended to [`Connection::recv_detailed`] and
/// [`Listener::accept_detailed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// The timeout elapsed; the peer (or port) is still up.
    TimedOut,
    /// The peer hung up (or the listening port was unbound) and all
    /// buffered data has been delivered.
    Disconnected,
}

/// Outcome of [`Connection::try_recv_detailed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TryRecv {
    /// A message was ready.
    Message(Vec<u8>),
    /// No message ready; the peer is still connected.
    Empty,
    /// The peer dropped its end (any buffered messages were already
    /// delivered).
    Disconnected,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_send_recv() {
        let net = Network::new();
        let listener = net.listen(7000).unwrap();
        let client = net.connect(7000).unwrap();
        let server = listener.accept().unwrap();
        client.send(b"msg0").unwrap();
        assert_eq!(server.recv().unwrap(), b"msg0");
        server.send(b"msg1").unwrap();
        assert_eq!(client.recv().unwrap(), b"msg1");
    }

    #[test]
    fn send_owned_delivers_the_buffer_and_faults_like_send() {
        let net = Network::new();
        let (client, server) = faulted_pair(&net, 7012);
        client.send_owned(b"moved".to_vec()).unwrap();
        assert_eq!(server.recv().unwrap(), b"moved");
        drop(server);
        assert!(client.send_owned(b"nobody".to_vec()).is_err());

        net.install_fault_plan(FaultPlan::new(2).corrupt_rate(1.0, 3));
        let (by_ref, server_a) = faulted_pair(&net, 7013);
        net.install_fault_plan(FaultPlan::new(2).corrupt_rate(1.0, 3));
        let (owned, server_b) = faulted_pair(&net, 7014);
        by_ref.send(&[0u8; 32]).unwrap();
        owned.send_owned(vec![0u8; 32]).unwrap();
        let got = server_b.recv().unwrap();
        assert_ne!(got, [0u8; 32]);
        assert_eq!(got, server_a.recv().unwrap(), "same plan, same faults");
    }

    #[test]
    fn connection_refused() {
        let net = Network::new();
        assert!(net.connect(9999).is_err());
    }

    #[test]
    fn double_bind_rejected() {
        let net = Network::new();
        let _a = net.listen(7001).unwrap();
        assert!(net.listen(7001).is_err());
    }

    #[test]
    fn unbind_frees_port() {
        let net = Network::new();
        let _a = net.listen(7002).unwrap();
        net.unbind(7002);
        assert!(net.listen(7002).is_ok());
    }

    #[test]
    fn multiple_connections_to_one_listener() {
        let net = Network::new();
        let listener = net.listen(7003).unwrap();
        let c1 = net.connect(7003).unwrap();
        let c2 = net.connect(7003).unwrap();
        let s1 = listener.accept().unwrap();
        let s2 = listener.accept().unwrap();
        c1.send(b"one").unwrap();
        c2.send(b"two").unwrap();
        assert_eq!(s1.recv().unwrap(), b"one");
        assert_eq!(s2.recv().unwrap(), b"two");
    }

    #[test]
    fn try_recv_nonblocking() {
        let net = Network::new();
        let listener = net.listen(7004).unwrap();
        let client = net.connect(7004).unwrap();
        let server = listener.accept().unwrap();
        assert_eq!(server.try_recv_detailed(), TryRecv::Empty);
        client.send(b"x").unwrap();
        assert_eq!(server.try_recv_detailed(), TryRecv::Message(b"x".to_vec()));
    }

    #[test]
    fn connect_storm_does_not_block_without_acceptor() {
        // Regression for the hard-coded bounded(16) accept backlog: a
        // 96-device connect storm must complete while nobody accepts —
        // otherwise admission serializes inside connect() and the wait
        // pollutes client-observed latency percentiles. Run the storm on
        // a helper thread so a regression fails the assertion instead of
        // hanging the suite.
        let net = std::sync::Arc::new(Network::new());
        let listener = net.listen(7006).unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let stormer = {
            let net = std::sync::Arc::clone(&net);
            std::thread::spawn(move || {
                let conns: Vec<Connection> = (0..96).map(|_| net.connect(7006).unwrap()).collect();
                done_tx.send(conns.len()).unwrap();
            })
        };
        assert_eq!(
            done_rx.recv_timeout(Duration::from_secs(5)),
            Ok(96),
            "default backlog must absorb a fleet-scale connect storm mid-drain"
        );
        stormer.join().unwrap();
        for _ in 0..96 {
            listener.accept().unwrap();
        }
    }

    #[test]
    fn a_full_backlog_blocks_connects_until_accepted() {
        // The backlog caps the pending-connection buffer: the dial after
        // it fills blocks until the acceptor drains, then completes.
        let net = std::sync::Arc::new(Network::new());
        let listener = net.listen(7007).unwrap();
        let dials = ACCEPT_BACKLOG + 2;
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let storming = {
            let net = std::sync::Arc::clone(&net);
            std::thread::spawn(move || {
                let conns: Vec<Connection> =
                    (0..dials).map(|_| net.connect(7007).unwrap()).collect();
                done_tx.send(conns.len()).unwrap();
            })
        };
        assert!(
            done_rx.recv_timeout(Duration::from_millis(200)).is_err(),
            "a dial past the backlog must wait for an accept"
        );
        for _ in 0..dials {
            listener.accept().unwrap();
        }
        assert_eq!(done_rx.recv(), Ok(dials));
        storming.join().unwrap();
    }

    #[test]
    fn recv_detailed_distinguishes_timeout_from_hangup() {
        let net = Network::new();
        let listener = net.listen(7008).unwrap();
        let client = net.connect(7008).unwrap();
        let server = listener.accept().unwrap();
        assert_eq!(
            server.recv_detailed(Duration::from_millis(10)),
            Err(RecvError::TimedOut),
            "quiet but connected peer is a timeout"
        );
        client.send(b"bye").unwrap();
        drop(client);
        assert_eq!(
            server.recv_detailed(Duration::from_millis(10)),
            Ok(b"bye".to_vec()),
            "buffered data drains before the hangup"
        );
        assert_eq!(
            server.recv_detailed(Duration::from_millis(10)),
            Err(RecvError::Disconnected)
        );
        // The legacy string-typed path stays distinguishable too.
        match server.recv() {
            Err(TeeError::Net(msg)) => assert_eq!(msg, "peer disconnected"),
            other => panic!("expected disconnect error, got {other:?}"),
        }
    }

    #[test]
    fn accept_detailed_reports_unbind_as_disconnect() {
        let net = Network::new();
        let listener = net.listen(7009).unwrap();
        let _pending = net.connect(7009).unwrap();
        net.unbind(7009);
        // The buffered connection is still delivered...
        assert!(listener.accept_detailed(Duration::from_millis(10)).is_ok());
        // ...then the unbind surfaces as a disconnect, not a timeout.
        assert!(matches!(
            listener.accept_detailed(Duration::from_millis(10)),
            Err(RecvError::Disconnected)
        ));
    }

    #[test]
    fn connection_receiver_registers_in_a_select() {
        use crossbeam::channel::Select;
        let net = Network::new();
        let listener = net.listen(7010).unwrap();
        let client = net.connect(7010).unwrap();
        let server = listener.accept().unwrap();
        let mut sel = Select::new();
        let idx = sel.recv(server.receiver());
        assert!(
            sel.ready_timeout(Duration::from_millis(10)).is_err(),
            "nothing sent yet"
        );
        client.send(b"wake").unwrap();
        assert_eq!(sel.ready_timeout(Duration::from_secs(1)), Ok(idx));
        assert_eq!(
            server.try_recv_detailed(),
            TryRecv::Message(b"wake".to_vec())
        );
    }

    fn faulted_pair(net: &Network, port: u16) -> (Connection, Connection) {
        let listener = net.listen(port).unwrap();
        let client = net.connect(port).unwrap();
        let server = listener.accept().unwrap();
        net.unbind(port);
        (client, server)
    }

    #[test]
    fn fault_plan_absent_means_no_hooks_and_empty_log() {
        let net = Network::new();
        let (client, server) = faulted_pair(&net, 7100);
        assert!(client.faults.is_none() && server.faults.is_none());
        client.send(b"clean").unwrap();
        assert_eq!(server.recv().unwrap(), b"clean");
        assert!(net.take_fault_log().is_empty());
    }

    #[test]
    fn drop_fault_is_silent_for_sender_and_logged() {
        let net = Network::new();
        net.install_fault_plan(FaultPlan::new(1).drop_rate(1.0));
        let (client, server) = faulted_pair(&net, 7101);
        client.send(b"lost").unwrap();
        assert_eq!(
            server.recv_detailed(Duration::from_millis(20)),
            Err(RecvError::TimedOut),
            "dropped frame must never arrive"
        );
        let log = net.take_fault_log();
        assert_eq!(log.len(), 1);
        assert_eq!(
            log[0],
            FaultEvent {
                conn: 0,
                dir: FaultDir::ClientToServer,
                seq: 0,
                kind: FaultKind::Drop
            }
        );
    }

    #[test]
    fn corrupt_fault_flips_bytes_but_preserves_length() {
        let net = Network::new();
        net.install_fault_plan(FaultPlan::new(2).corrupt_rate(1.0, 3));
        let (client, server) = faulted_pair(&net, 7102);
        let sent = [0u8; 32];
        client.send(&sent).unwrap();
        let got = server.recv().unwrap();
        assert_eq!(got.len(), sent.len());
        assert_ne!(got, sent, "corruption must change the payload");
        assert!(net
            .take_fault_log()
            .iter()
            .any(|e| e.kind == FaultKind::Corrupt && e.conn == 0));
    }

    #[test]
    fn duplicate_fault_delivers_twice() {
        let net = Network::new();
        net.install_fault_plan(FaultPlan::new(3).duplicate_rate(1.0));
        let (client, server) = faulted_pair(&net, 7103);
        client.send(b"twin").unwrap();
        assert_eq!(server.recv().unwrap(), b"twin");
        assert_eq!(server.recv().unwrap(), b"twin");
        assert_eq!(net.take_fault_log()[0].kind, FaultKind::Duplicate);
    }

    #[test]
    fn delay_fault_delivers_late_but_intact() {
        let net = Network::new();
        net.install_fault_plan(FaultPlan::new(4).delay_rate(1.0, Duration::from_millis(10)));
        let (client, server) = faulted_pair(&net, 7104);
        client.send(b"slow").unwrap();
        assert_eq!(server.recv().unwrap(), b"slow");
        assert_eq!(net.take_fault_log()[0].kind, FaultKind::Delay);
    }

    #[test]
    fn disconnect_fault_kills_the_endpoint_both_ways() {
        let net = Network::new();
        net.install_fault_plan(FaultPlan::new(5).disconnect_rate(1.0));
        let (client, server) = faulted_pair(&net, 7105);
        assert!(client.send(b"doomed").is_err(), "send fails at the kill");
        assert_eq!(
            client.recv_detailed(Duration::from_millis(10)),
            Err(RecvError::Disconnected),
            "a killed endpoint cannot receive either"
        );
        assert_eq!(client.try_recv_detailed(), TryRecv::Disconnected);
        // The peer sees a normal hangup once the killed side is dropped.
        drop(client);
        assert_eq!(
            server.recv_detailed(Duration::from_millis(100)),
            Err(RecvError::Disconnected)
        );
        let log = net.take_fault_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].kind, FaultKind::Disconnect);
    }

    #[test]
    fn fault_schedule_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let net = Network::new();
            net.install_fault_plan(
                FaultPlan::new(seed)
                    .drop_rate(0.3)
                    .corrupt_rate(0.3, 2)
                    .duplicate_rate(0.2),
            );
            for port in 0..4u16 {
                let (client, server) = faulted_pair(&net, 7110 + port);
                for i in 0..8u8 {
                    client.send(&[i; 16]).unwrap();
                    server.send(&[i ^ 0xFF; 16]).unwrap();
                }
            }
            net.take_fault_log()
        };
        let a = run(0xC0FFEE);
        let b = run(0xC0FFEE);
        assert!(!a.is_empty(), "moderate rates over 64 sends must fire");
        assert_eq!(a, b, "same seed, same dial order => identical schedule");
        assert_ne!(a, run(0xBEEF), "a different seed reshuffles the plan");
    }

    #[test]
    fn clear_fault_plan_leaves_new_connections_clean() {
        let net = Network::new();
        net.install_fault_plan(FaultPlan::new(6).drop_rate(1.0));
        let (faulted, _server) = faulted_pair(&net, 7120);
        net.clear_fault_plan();
        let (clean_client, clean_server) = faulted_pair(&net, 7121);
        clean_client.send(b"through").unwrap();
        assert_eq!(clean_server.recv().unwrap(), b"through");
        // The already-dialled connection keeps its hook.
        faulted.send(b"gone").unwrap();
        assert_eq!(net.take_fault_log().len(), 1);
    }

    #[test]
    fn try_recv_detailed_distinguishes_idle_from_disconnected() {
        let net = Network::new();
        let listener = net.listen(7005).unwrap();
        let client = net.connect(7005).unwrap();
        let server = listener.accept().unwrap();
        assert_eq!(server.try_recv_detailed(), TryRecv::Empty);
        client.send(b"last words").unwrap();
        drop(client);
        // Buffered data drains before the hangup is reported.
        assert_eq!(
            server.try_recv_detailed(),
            TryRecv::Message(b"last words".to_vec())
        );
        assert_eq!(server.try_recv_detailed(), TryRecv::Disconnected);
    }

    #[test]
    fn shutdown_recv_fails_the_peers_sends_but_not_ours() {
        let net = Network::new();
        let listener = net.listen(7011).unwrap();
        let mut client = net.connect(7011).unwrap();
        let server = listener.accept().unwrap();
        client.shutdown_recv();
        client.send(b"last words").unwrap();
        assert_eq!(
            server.try_recv_detailed(),
            TryRecv::Message(b"last words".to_vec())
        );
        // The client is still connected, but nothing can reach it.
        assert_eq!(server.try_recv_detailed(), TryRecv::Empty);
        assert!(server.send(b"reply").is_err());
        assert_eq!(client.try_recv_detailed(), TryRecv::Disconnected);
    }
}
