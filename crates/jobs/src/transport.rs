//! Worker transports: local stdio children and remote TCP sessions.
//!
//! The runner drives every worker through [`WorkerTransport`], so the
//! scheduling, lease, and checkpoint machinery is transport-blind:
//!
//! * [`StdioTransport`] wraps a locally-spawned child exactly as the
//!   pre-socket fabric did — same spawn, same pipes, same bytes — so
//!   the stdio protocol stays byte-compatible.
//! * [`SocketTransport`] wraps one admitted TCP session. Remote
//!   workers dial the coordinator's `--job-listen` address, admit
//!   themselves with a `{"worker":pid,"token":"…"}` line, and wait in
//!   the [`RemoteGate`] pool until a job runner adopts them with the
//!   normal hello.
//!
//! Network faults are injected here, on the data-frame send path of
//! both directions, via four `LEAKAGE_FAULTS` sites:
//!
//! ```text
//! net/drop=drop#2                the 2nd data frame vanishes
//! net/delay=latency:20%100@7     10% of frames arrive 20 ms late
//! net/partition=latency:4000#3   a 4 s partition at the 3rd frame
//! net/dup=dup                    every frame is delivered twice
//! ```
//!
//! A partition sleeps *while holding the session's writer lock*, so
//! the worker's heartbeat thread is silenced too — the coordinator
//! observes missed beats, expires the lease, and reassigns, exactly as
//! it would for a real split. Heartbeats and admission frames skip the
//! fault sites so `#N` triggers count data frames deterministically:
//! arrival 1 is `ready`, arrival N+1 is the N-th chunk response.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::process::{Child, ChildStdin, ChildStdout};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use leakage_experiments::ProfileStore;
use leakage_faults::{drop_point, dup_point, panic_point, JitteredBackoff};
use leakage_telemetry::{counter, gauge, warn};

use crate::protocol::{chunk_response, Assign, Hello, SessionHello, WorkerFrame};

/// How long the listener waits for a connecting worker's admission
/// line before dropping it.
const ADMISSION_TIMEOUT: Duration = Duration::from_secs(2);

/// Accept-loop polling period: how often the listener checks for new
/// connections, dead pooled sessions, and shutdown.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// One worker link, as the job runner sees it. Implementations must
/// make [`WorkerTransport::take_reader`]'s stream observe `kill` (the
/// reader thread unblocks with EOF or an error when the link dies).
pub trait WorkerTransport: Send {
    /// Writes one newline-terminated protocol line and flushes.
    ///
    /// # Errors
    ///
    /// The underlying pipe/socket error; the runner treats any failure
    /// as a dead worker.
    fn send_line(&mut self, line: &str) -> io::Result<()>;

    /// The read half, taken once for the runner's reader thread.
    fn take_reader(&mut self) -> Option<Box<dyn Read + Send>>;

    /// Graceful retirement: the worker observes end-of-input and
    /// (stdio) exits 0 / (socket) returns to its redial loop.
    fn close_input(&mut self);

    /// Hard teardown of the link.
    fn kill(&mut self);

    /// Releases any OS resources `kill` leaves behind (zombie reaping
    /// for children; a no-op for sockets).
    fn reap(&mut self);

    /// The worker's pid, for status displays.
    fn id(&self) -> u32;

    /// Whether the runner owns this worker's lifetime (it respawns
    /// dead local workers; remote ones redial on their own).
    fn is_local(&self) -> bool;
}

/// A locally-spawned worker child on stdin/stdout pipes.
pub struct StdioTransport {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: Option<ChildStdout>,
    pid: u32,
}

impl StdioTransport {
    /// Wraps a freshly-spawned child, taking its pipes. The child must
    /// have been spawned with piped stdin and stdout.
    pub fn new(mut child: Child) -> StdioTransport {
        let stdin = child.stdin.take();
        let stdout = child.stdout.take();
        let pid = child.id();
        StdioTransport {
            child,
            stdin,
            stdout,
            pid,
        }
    }
}

impl WorkerTransport for StdioTransport {
    fn send_line(&mut self, line: &str) -> io::Result<()> {
        let Some(stdin) = self.stdin.as_mut() else {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "worker stdin already retired",
            ));
        };
        stdin.write_all(line.as_bytes())?;
        stdin.write_all(b"\n")?;
        stdin.flush()
    }

    fn take_reader(&mut self) -> Option<Box<dyn Read + Send>> {
        self.stdout.take().map(|out| Box::new(out) as Box<dyn Read + Send>)
    }

    fn close_input(&mut self) {
        self.stdin = None;
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    fn id(&self) -> u32 {
        self.pid
    }

    fn is_local(&self) -> bool {
        true
    }
}

/// Decrements the connected-workers gauge when an admitted session's
/// last owner drops it.
struct ConnGuard {
    connected: Arc<AtomicUsize>,
}

impl ConnGuard {
    fn admit(connected: &Arc<AtomicUsize>) -> ConnGuard {
        let now = connected.fetch_add(1, Ordering::SeqCst) + 1;
        gauge!("jobs_remote_workers_connected").set(now as u64);
        ConnGuard {
            connected: Arc::clone(connected),
        }
    }
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        let now = self.connected.fetch_sub(1, Ordering::SeqCst).saturating_sub(1);
        gauge!("jobs_remote_workers_connected").set(now as u64);
    }
}

/// An admitted remote worker waiting in the pool for a job to adopt
/// it.
pub struct RemoteSession {
    stream: TcpStream,
    pid: u32,
    guard: ConnGuard,
}

/// One adopted remote session, driven by a job runner.
pub struct SocketTransport {
    stream: TcpStream,
    reader: Option<TcpStream>,
    pid: u32,
    _guard: ConnGuard,
}

impl SocketTransport {
    /// Adopts a pooled session. The reader half is a `try_clone` of
    /// the stream so `kill`'s shutdown unblocks it.
    pub fn adopt(session: RemoteSession) -> io::Result<SocketTransport> {
        let reader = session.stream.try_clone()?;
        Ok(SocketTransport {
            stream: session.stream,
            reader: Some(reader),
            pid: session.pid,
            _guard: session.guard,
        })
    }
}

impl WorkerTransport for SocketTransport {
    fn send_line(&mut self, line: &str) -> io::Result<()> {
        let mut payload = Vec::with_capacity(line.len() + 1);
        payload.extend_from_slice(line.as_bytes());
        payload.push(b'\n');
        faulted_send(&mut self.stream, &payload)
    }

    fn take_reader(&mut self) -> Option<Box<dyn Read + Send>> {
        self.reader.take().map(|half| Box::new(half) as Box<dyn Read + Send>)
    }

    fn close_input(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Write);
    }

    fn kill(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    fn reap(&mut self) {}

    fn id(&self) -> u32 {
        self.pid
    }

    fn is_local(&self) -> bool {
        false
    }
}

/// Visits the network fault sites and performs one data-frame send.
/// `net/delay` and `net/partition` are latency sites (the distinction
/// is magnitude and separate arrival counters); `net/drop` swallows
/// the payload; `net/dup` sends it twice.
fn faulted_send(stream: &mut (impl Write + ?Sized), payload: &[u8]) -> io::Result<()> {
    panic_point("net/delay");
    panic_point("net/partition");
    if drop_point("net/drop") {
        counter!("jobs_net_frames_dropped_total").inc();
        return Ok(());
    }
    stream.write_all(payload)?;
    if dup_point("net/dup") {
        counter!("jobs_net_frames_duplicated_total").inc();
        stream.write_all(payload)?;
    }
    stream.flush()
}

/// The coordinator's worker listener: accepts TCP connections, checks
/// the admission frame (pid + shared token), and pools admitted
/// sessions until job runners adopt them. Shared by every job the
/// fabric runs.
pub struct RemoteGate {
    addr: SocketAddr,
    token: Option<String>,
    pool: Mutex<Vec<RemoteSession>>,
    connected: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
    accept: Mutex<Option<JoinHandle<()>>>,
}

impl RemoteGate {
    /// Binds `addr` and starts the accept loop.
    ///
    /// # Errors
    ///
    /// The bind failure, verbatim — a fabric asked to listen must not
    /// start deaf.
    pub fn bind(addr: &str, token: Option<String>) -> io::Result<Arc<RemoteGate>> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let gate = Arc::new(RemoteGate {
            addr: listener.local_addr()?,
            token,
            pool: Mutex::new(Vec::new()),
            connected: Arc::new(AtomicUsize::new(0)),
            stop: Arc::new(AtomicBool::new(false)),
            accept: Mutex::new(None),
        });
        let accept_gate = Arc::clone(&gate);
        let handle = std::thread::Builder::new()
            .name("job-listener".into())
            .spawn(move || accept_gate.accept_loop(listener))
            .map_err(io::Error::other)?;
        *gate.accept.lock().unwrap_or_else(PoisonError::into_inner) = Some(handle);
        Ok(gate)
    }

    /// The bound address (with the OS-chosen port when `addr` ended in
    /// `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Admitted sessions currently alive: pooled plus adopted.
    pub fn connected(&self) -> usize {
        self.connected.load(Ordering::SeqCst)
    }

    /// Takes one pooled session for a job runner to adopt.
    pub fn take(&self) -> Option<RemoteSession> {
        self.pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop()
    }

    /// Stops accepting, drops pooled sessions (their workers redial
    /// and find the port closed), and joins the accept thread.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self
            .accept
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
        {
            let _ = handle.join();
        }
        self.pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }

    fn accept_loop(&self, listener: TcpListener) {
        while !self.stop.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, peer)) => self.admit(stream, peer),
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                    self.sweep_pool();
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(err) => {
                    warn!("jobs: listener accept failed: {err}");
                    std::thread::sleep(ACCEPT_POLL);
                }
            }
        }
    }

    /// Reads and checks one connection's admission line.
    fn admit(&self, stream: TcpStream, peer: SocketAddr) {
        let session = (|| -> io::Result<SessionHello> {
            stream.set_nonblocking(false)?;
            stream.set_read_timeout(Some(ADMISSION_TIMEOUT))?;
            let mut line = String::new();
            BufReader::new(stream.try_clone()?).read_line(&mut line)?;
            let hello = SessionHello::parse(line.trim_end())?;
            stream.set_read_timeout(None)?;
            stream.set_nodelay(true)?;
            Ok(hello)
        })();
        let hello = match session {
            Ok(hello) => hello,
            Err(err) => {
                counter!("jobs_remote_auth_failures_total").inc();
                warn!("jobs: worker admission from {peer} failed: {err}");
                return;
            }
        };
        if self.token.is_some() && hello.token != self.token {
            counter!("jobs_remote_auth_failures_total").inc();
            warn!("jobs: worker {peer} (pid {}) rejected: bad token", hello.pid);
            return;
        }
        counter!("jobs_remote_admissions_total").inc();
        self.pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(RemoteSession {
                guard: ConnGuard::admit(&self.connected),
                stream,
                pid: hello.pid,
            });
    }

    /// Evicts pooled sessions whose worker died while idle — a pooled
    /// worker sends nothing until adopted, so any readable event
    /// (EOF, an error, or unsolicited bytes) means the session is
    /// unusable. Keeps the connected gauge honest between jobs.
    fn sweep_pool(&self) {
        let mut pool = self.pool.lock().unwrap_or_else(PoisonError::into_inner);
        pool.retain(|session| {
            let alive = session.stream.set_nonblocking(true).is_ok()
                && matches!(
                    session.stream.peek(&mut [0u8; 1]),
                    Err(ref err) if err.kind() == io::ErrorKind::WouldBlock
                )
                && session.stream.set_nonblocking(false).is_ok();
            if !alive {
                warn!("jobs: pooled worker pid {} went away", session.pid);
            }
            alive
        });
    }
}

/// Configuration for [`run_remote_worker`].
#[derive(Debug, Clone)]
pub struct RemoteWorkerConfig {
    /// The coordinator's `--job-listen` address.
    pub addr: String,
    /// Shared secret matching the coordinator's `--job-token`.
    pub token: Option<String>,
    /// Heartbeat period while a session is active.
    pub heartbeat_every: Duration,
    /// Reconnect pacing; seed it per-worker (e.g. by pid) so a healed
    /// partition does not redial in lockstep.
    pub backoff: JitteredBackoff,
    /// Total connection attempts before giving up; `None` dials
    /// forever.
    pub max_dials: Option<u64>,
}

impl RemoteWorkerConfig {
    /// A worker dialing `addr` with defaults: 1 s heartbeats, 100 ms
    /// to 5 s jittered redials seeded by pid, unlimited dials.
    pub fn dial(addr: &str) -> RemoteWorkerConfig {
        RemoteWorkerConfig {
            addr: addr.to_string(),
            token: None,
            heartbeat_every: Duration::from_millis(1000),
            backoff: JitteredBackoff::new(
                Duration::from_millis(100),
                Duration::from_secs(5),
                u64::from(std::process::id()),
            ),
            max_dials: None,
        }
    }
}

/// The remote worker main loop: dial, admit, serve one session, and
/// redial with jittered backoff until `max_dials` runs out.
///
/// # Errors
///
/// Only `max_dials` exhaustion without a single served session; every
/// in-session failure is logged and retried, because from out here a
/// coordinator restart and a network partition look identical.
pub fn run_remote_worker(config: RemoteWorkerConfig) -> io::Result<()> {
    let mut backoff = config.backoff.clone();
    let mut dials = 0u64;
    let mut served_any = false;
    loop {
        dials += 1;
        match TcpStream::connect(&config.addr) {
            Ok(stream) => {
                if dials > 1 {
                    counter!("jobs_worker_reconnects_total").inc();
                }
                match remote_session(stream, &config) {
                    Ok(served) => {
                        served_any |= served;
                        if served {
                            // A session that reached a job hello means
                            // the coordinator is healthy; redial at the
                            // base bound.
                            backoff.reset();
                        }
                    }
                    Err(err) => warn!("jobs: worker session against {} ended: {err}", config.addr),
                }
            }
            Err(err) => warn!("jobs: dial {} failed: {err}", config.addr),
        }
        if let Some(max) = config.max_dials {
            if dials >= max {
                return if served_any {
                    Ok(())
                } else {
                    Err(io::Error::new(
                        io::ErrorKind::ConnectionRefused,
                        format!("no session served in {max} dial(s) of {}", config.addr),
                    ))
                };
            }
        }
        std::thread::sleep(backoff.next_delay());
    }
}

/// Serves one admitted session: wait for a job hello, answer `ready`,
/// heartbeat from a side thread, and evaluate assignments until the
/// coordinator closes its half. Returns whether a job hello was seen.
fn remote_session(stream: TcpStream, config: &RemoteWorkerConfig) -> io::Result<bool> {
    stream.set_nodelay(true)?;
    let writer = Arc::new(Mutex::new(stream.try_clone()?));
    {
        // Admission is control-plane: no fault sites, so data-frame
        // arrival counters start at `ready`.
        let mut out = writer.lock().unwrap_or_else(PoisonError::into_inner);
        let hello = SessionHello {
            pid: std::process::id(),
            token: config.token.clone(),
        };
        out.write_all(hello.encode().as_bytes())?;
        out.write_all(b"\n")?;
        out.flush()?;
    }
    let mut lines = BufReader::new(stream).lines();
    let hello = match lines.next() {
        // Pooled until the coordinator went away: a clean, jobless
        // session.
        None => return Ok(false),
        Some(line) => Hello::parse(&line?)?,
    };
    let stop_beats = Arc::new(AtomicBool::new(false));
    let beats = spawn_heartbeats(
        Arc::clone(&writer),
        Arc::clone(&stop_beats),
        config.heartbeat_every,
    );
    let session = (|| -> io::Result<()> {
        send_data(&writer, &(WorkerFrame::Ready(std::process::id()).encode() + "\n"))?;
        let store = ProfileStore::global();
        for line in lines {
            let assign = Assign::parse(&line?)?;
            // Same kill site and placement as the stdio worker: an
            // armed panic takes the process down, outside any guard.
            panic_point("jobs/chunk");
            let response = chunk_response(&hello.spec, store, &assign);
            send_data(&writer, &response)?;
        }
        Ok(())
    })();
    stop_beats.store(true, Ordering::SeqCst);
    let _ = beats.join();
    session.map(|()| true)
}

/// Sends one data payload (a whole frame, or a whole chunk response)
/// under the writer lock, visiting the network fault sites while the
/// lock is held — so an armed `net/partition` silences heartbeats too.
fn send_data(writer: &Mutex<TcpStream>, payload: &str) -> io::Result<()> {
    let mut out = writer.lock().unwrap_or_else(PoisonError::into_inner);
    faulted_send(&mut *out, payload.as_bytes())
}

fn spawn_heartbeats(
    writer: Arc<Mutex<TcpStream>>,
    stop: Arc<AtomicBool>,
    every: Duration,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let seq = AtomicU64::new(1);
        let slice = Duration::from_millis(25).min(every);
        let mut elapsed = Duration::ZERO;
        while !stop.load(Ordering::SeqCst) {
            std::thread::sleep(slice);
            elapsed += slice;
            if elapsed < every {
                continue;
            }
            elapsed = Duration::ZERO;
            let frame = WorkerFrame::Heartbeat(seq.fetch_add(1, Ordering::Relaxed)).encode();
            let mut out = writer.lock().unwrap_or_else(PoisonError::into_inner);
            let sent = out
                .write_all(frame.as_bytes())
                .and_then(|()| out.write_all(b"\n"))
                .and_then(|()| out.flush());
            if sent.is_err() {
                // The session writer is dead; the main loop will see
                // it too. Stop beating.
                return;
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_admits_token_holders_and_rejects_the_rest() {
        let gate = RemoteGate::bind("127.0.0.1:0", Some("sesame".into())).unwrap();
        let addr = gate.addr();

        let dial = |line: Option<String>| {
            let mut stream = TcpStream::connect(addr).unwrap();
            if let Some(line) = line {
                stream.write_all(line.as_bytes()).unwrap();
                stream.write_all(b"\n").unwrap();
                stream.flush().unwrap();
            }
            stream
        };
        let good = dial(Some(
            SessionHello {
                pid: 4321,
                token: Some("sesame".into()),
            }
            .encode(),
        ));
        let _bad_token = dial(Some(
            SessionHello {
                pid: 1,
                token: Some("wrong".into()),
            }
            .encode(),
        ));
        let _not_json = dial(Some("hello?".into()));

        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let session = loop {
            if let Some(session) = gate.take() {
                break session;
            }
            assert!(std::time::Instant::now() < deadline, "admission timed out");
            std::thread::sleep(Duration::from_millis(10));
        };
        assert_eq!(session.pid, 4321, "only the token holder is admitted");
        assert_eq!(gate.connected(), 1);
        assert!(gate.take().is_none(), "rejects never reach the pool");

        // Adopting and dropping the session returns the gauge to zero.
        let transport = SocketTransport::adopt(session).unwrap();
        assert!(!transport.is_local());
        drop(transport);
        drop(good);
        assert_eq!(gate.connected(), 0);
        gate.stop();
    }

    #[test]
    fn sweep_evicts_dead_pooled_workers() {
        let gate = RemoteGate::bind("127.0.0.1:0", None).unwrap();
        let addr = gate.addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all((SessionHello { pid: 9, token: None }.encode() + "\n").as_bytes())
            .unwrap();
        stream.flush().unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while gate.connected() == 0 {
            assert!(std::time::Instant::now() < deadline, "admission timed out");
            std::thread::sleep(Duration::from_millis(10));
        }
        // The worker dies while pooled; the sweep notices without any
        // job ever adopting the session.
        drop(stream);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while gate.connected() != 0 {
            assert!(std::time::Instant::now() < deadline, "sweep missed the dead worker");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(gate.take().is_none());
        gate.stop();
    }

    #[test]
    fn faulted_send_drops_and_duplicates_on_cue() {
        use leakage_faults::Plane;
        // The free functions only see the process-wide plane; no other
        // unit test in this crate arms it, so install and restore.
        // A dropped frame never reaches the dup site, so "three" is
        // the dup site's *second* visit.
        leakage_faults::set_plane(Plane::parse("net/drop=drop#2;net/dup=dup#2").unwrap());
        let mut wire = Vec::new();
        faulted_send(&mut wire, b"one\n").unwrap();
        faulted_send(&mut wire, b"two\n").unwrap(); // dropped
        faulted_send(&mut wire, b"three\n").unwrap(); // duplicated
        leakage_faults::set_plane(Plane::empty());
        assert_eq!(wire, b"one\nthree\nthree\n");
    }
}
