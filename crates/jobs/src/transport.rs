//! Worker links and the worker session: one protocol, two kinds of
//! stream.
//!
//! Every worker, local or remote, runs the same `serve_session`:
//! wait for the job hello, answer `ready`, heartbeat from a side
//! thread, and answer assignments until the coordinator closes its
//! half. Only the stream and the ownership differ:
//!
//! * a **local** worker is a child the fabric spawns with one end of a
//!   Unix socket pair as its stdin (`WorkerLink::spawn`); it serves
//!   one session and exits 0 at end of input. The fabric owns it:
//!   spawns, kills, respawns and reaps it.
//! * a **remote** worker dials the coordinator's `--job-listen`
//!   address, admits itself with a `{"worker":pid,"token":"…"}` line,
//!   and waits in the [`RemoteGate`] pool until a job runner adopts it
//!   ([`RemoteGate::take`]). It owns itself and redials with jittered
//!   backoff when a session ends ([`run_remote_worker`]).
//!
//! The runner holds either as a [`WorkerLink`]: a stream plus, for a
//! local worker, its `Child`.
//!
//! Network faults are injected on the data-frame send path of both
//! directions, via four `LEAKAGE_FAULTS` sites:
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
use std::os::fd::{AsFd, OwnedFd};
use std::os::unix::net::UnixStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use leakage_experiments::ProfileStore;
use leakage_faults::{drop_point, dup_point, panic_point, JitteredBackoff};
use leakage_telemetry::{counter, gauge, warn};

use crate::protocol::{chunk_response, Assign, Hello, SessionHello, WorkerFrame};

/// How long the listener gives a connecting worker to deliver its
/// whole admission line before dropping it.
const ADMISSION_TIMEOUT: Duration = Duration::from_secs(2);

/// Longest admission line the listener reads: a pid and a token fit
/// in a fraction of this.
const MAX_ADMISSION_BYTES: usize = 1024;

/// Accept-loop polling period: how often the listener checks for new
/// connections, dead pooled sessions, and shutdown.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// Heartbeat period of a local worker, well inside any sensible
/// `heartbeat_timeout`.
const LOCAL_HEARTBEAT: Duration = Duration::from_millis(250);

/// A worker link's byte stream: TCP for remote workers, one end of a
/// Unix socket pair for local ones.
#[derive(Debug)]
pub(crate) enum Stream {
    /// An admitted remote session.
    Tcp(TcpStream),
    /// A local child's socket pair end.
    Unix(UnixStream),
}

impl Stream {
    /// A second handle on the same socket (for a reader thread, or a
    /// writer shared with the heartbeat thread).
    ///
    /// # Errors
    ///
    /// The `dup` failure.
    pub(crate) fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }

    fn shutdown(&self, how: Shutdown) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.shutdown(how),
            Stream::Unix(s) => s.shutdown(how),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
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
        let now = self
            .connected
            .fetch_sub(1, Ordering::SeqCst)
            .saturating_sub(1);
        gauge!("jobs_remote_workers_connected").set(now as u64);
    }
}

/// One worker as a job runner drives it: the protocol stream, and the
/// child process when the fabric owns the worker.
pub struct WorkerLink {
    stream: Stream,
    pid: u32,
    child: Option<Child>,
    _admitted: Option<ConnGuard>,
}

impl WorkerLink {
    /// Spawns a local worker: `command` (the worker binary, with no
    /// arguments) gets one end of a fresh socket pair as its stdin and
    /// no stdout. `command` is consumed so the parent's copy of the
    /// child's end closes here, and the child's exit is seen as end of
    /// stream.
    ///
    /// # Errors
    ///
    /// The socket-pair or spawn failure.
    pub(crate) fn spawn(mut command: Command) -> io::Result<WorkerLink> {
        let (ours, theirs) = UnixStream::pair()?;
        command
            .stdin(Stdio::from(OwnedFd::from(theirs)))
            .stdout(Stdio::null());
        let child = command.spawn()?;
        Ok(WorkerLink {
            stream: Stream::Unix(ours),
            pid: child.id(),
            child: Some(child),
            _admitted: None,
        })
    }

    /// Writes one newline-terminated protocol line through the network
    /// fault sites.
    ///
    /// # Errors
    ///
    /// The socket error; the runner treats any failure as a dead
    /// worker.
    pub(crate) fn send_line(&mut self, line: &str) -> io::Result<()> {
        faulted_send(&mut self.stream, format!("{line}\n").as_bytes())
    }

    /// The read half for the runner's reader thread. It unblocks with
    /// end of stream or an error when the link is killed.
    ///
    /// # Errors
    ///
    /// The `dup` failure.
    pub(crate) fn reader(&self) -> io::Result<Stream> {
        self.stream.try_clone()
    }

    /// Graceful retirement: the worker sees end of input; a local one
    /// exits 0, a remote one returns to its redial loop.
    pub(crate) fn close_input(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Write);
    }

    /// Hard teardown: severs the stream and, for a local worker, kills
    /// the process.
    pub(crate) fn kill(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(child) = self.child.as_mut() {
            let _ = child.kill();
        }
    }

    /// [`Self::kill`], then waits for a local worker's process to be
    /// reaped.
    pub(crate) fn reap(&mut self) {
        self.kill();
        if let Some(child) = self.child.as_mut() {
            let _ = child.wait();
        }
    }

    /// The worker's OS pid, for status displays.
    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// Whether the fabric owns the worker's process (spawns, kills and
    /// respawns it); remote workers redial on their own.
    pub(crate) fn owned(&self) -> bool {
        self.child.is_some()
    }
}

/// Visits the network fault sites and performs one data-frame send.
/// `net/delay` and `net/partition` are latency sites (the distinction
/// is magnitude and separate arrival counters); `net/drop` swallows
/// the payload; `net/dup` sends it twice.
fn faulted_send(stream: &mut impl Write, payload: &[u8]) -> io::Result<()> {
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
    pool: Mutex<Vec<WorkerLink>>,
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

    /// Takes one pooled worker for a job runner to adopt.
    pub fn take(&self) -> Option<WorkerLink> {
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
            let line = read_admission_line(&stream)?;
            let hello = SessionHello::parse(&line)?;
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
            warn!(
                "jobs: worker {peer} (pid {}) rejected: bad token",
                hello.pid
            );
            return;
        }
        counter!("jobs_remote_admissions_total").inc();
        self.pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(WorkerLink {
                stream: Stream::Tcp(stream),
                pid: hello.pid,
                child: None,
                _admitted: Some(ConnGuard::admit(&self.connected)),
            });
    }

    /// Evicts pooled workers that died while idle — a pooled worker
    /// sends nothing until adopted, so any readable event (EOF, an
    /// error, or unsolicited bytes) means the link is unusable. Keeps
    /// the connected gauge honest between jobs.
    fn sweep_pool(&self) {
        let mut pool = self.pool.lock().unwrap_or_else(PoisonError::into_inner);
        pool.retain(|link| {
            let Stream::Tcp(stream) = &link.stream else {
                return true;
            };
            let alive = stream.set_nonblocking(true).is_ok()
                && matches!(
                    stream.peek(&mut [0u8; 1]),
                    Err(ref err) if err.kind() == io::ErrorKind::WouldBlock
                )
                && stream.set_nonblocking(false).is_ok();
            if !alive {
                warn!("jobs: pooled worker pid {} went away", link.pid);
            }
            alive
        });
    }
}

/// Reads one admission line of at most [`MAX_ADMISSION_BYTES`], all of
/// it within [`ADMISSION_TIMEOUT`] of the first read. Admission runs on
/// the accept thread, so neither a peer that trickles bytes nor one
/// that never ends its line may hold it longer than that.
fn read_admission_line(mut stream: &TcpStream) -> io::Result<String> {
    let deadline = Instant::now() + ADMISSION_TIMEOUT;
    let mut line = Vec::new();
    let mut chunk = [0u8; 256];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("no admission line within {ADMISSION_TIMEOUT:?}"),
            ));
        }
        stream.set_read_timeout(Some(left))?;
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        line.extend_from_slice(&chunk[..n]);
        if let Some(end) = line.iter().position(|&b| b == b'\n') {
            line.truncate(end);
            break;
        }
        if line.len() > MAX_ADMISSION_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("admission line longer than {MAX_ADMISSION_BYTES} bytes"),
            ));
        }
    }
    String::from_utf8(line)
        .map(|text| text.trim_end().to_string())
        .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err))
}

/// The local worker main: serves one session on the socket the
/// coordinator passed as stdin (`WorkerLink::spawn`) and returns at
/// end of input.
///
/// # Errors
///
/// Protocol violations and socket failures; the binary turns these
/// into a non-zero exit.
pub fn run_local_worker() -> io::Result<()> {
    let stdin = io::stdin().as_fd().try_clone_to_owned()?;
    serve_session(Stream::Unix(UnixStream::from(stdin)), LOCAL_HEARTBEAT).map(drop)
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

/// Admits one dialed connection, then serves it as a session.
fn remote_session(mut stream: TcpStream, config: &RemoteWorkerConfig) -> io::Result<bool> {
    stream.set_nodelay(true)?;
    // Admission is control-plane: no fault sites, so data-frame
    // arrival counters start at `ready`.
    let hello = SessionHello {
        pid: std::process::id(),
        token: config.token.clone(),
    };
    stream.write_all((hello.encode() + "\n").as_bytes())?;
    stream.flush()?;
    serve_session(Stream::Tcp(stream), config.heartbeat_every)
}

/// The worker session, local and remote alike: wait for a job hello,
/// answer `ready`, heartbeat from a side thread, and evaluate
/// assignments until the coordinator closes its half. Returns whether
/// a job hello was seen.
///
/// # Errors
///
/// Protocol violations and stream failures.
fn serve_session(stream: Stream, heartbeat_every: Duration) -> io::Result<bool> {
    let writer = Arc::new(Mutex::new(stream.try_clone()?));
    let mut lines = BufReader::new(stream).lines();
    let hello = match lines.next() {
        // Closed before any job arrived (a remote worker pooled until
        // the coordinator went away): a clean, jobless session.
        None => return Ok(false),
        Some(line) => Hello::parse(&line?)?,
    };
    let stop_beats = Arc::new(AtomicBool::new(false));
    let beats = spawn_heartbeats(
        Arc::clone(&writer),
        Arc::clone(&stop_beats),
        heartbeat_every,
    );
    let session = (|| -> io::Result<()> {
        send_data(
            &writer,
            &(WorkerFrame::Ready(std::process::id()).encode() + "\n"),
        )?;
        let store = ProfileStore::global();
        for line in lines {
            let assign = Assign::parse(&line?)?;
            // The kill site, outside any unwinding guard: an armed
            // `jobs/chunk=panic#N` arm takes this worker down at its
            // N-th chunk boundary, deterministically.
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
fn send_data(writer: &Mutex<Stream>, payload: &str) -> io::Result<()> {
    let mut out = writer.lock().unwrap_or_else(PoisonError::into_inner);
    faulted_send(&mut *out, payload.as_bytes())
}

fn spawn_heartbeats(
    writer: Arc<Mutex<Stream>>,
    stop: Arc<AtomicBool>,
    every: Duration,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut seq = 0;
        let slice = Duration::from_millis(25).min(every);
        let mut elapsed = Duration::ZERO;
        while !stop.load(Ordering::SeqCst) {
            std::thread::sleep(slice);
            elapsed += slice;
            if elapsed < every {
                continue;
            }
            elapsed = Duration::ZERO;
            seq += 1;
            let frame = WorkerFrame::Heartbeat(seq).encode() + "\n";
            let mut out = writer.lock().unwrap_or_else(PoisonError::into_inner);
            if out
                .write_all(frame.as_bytes())
                .and_then(|()| out.flush())
                .is_err()
            {
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

    fn wait_for(limit: Duration, done: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + limit;
        while Instant::now() < deadline {
            if done() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        done()
    }

    fn admission(pid: u32, token: Option<&str>) -> Vec<u8> {
        let hello = SessionHello {
            pid,
            token: token.map(str::to_string),
        };
        (hello.encode() + "\n").into_bytes()
    }

    #[test]
    fn gate_admits_token_holders_and_rejects_the_rest() {
        let gate = RemoteGate::bind("127.0.0.1:0", Some("sesame".into())).unwrap();
        let addr = gate.addr();

        let dial = |line: &[u8]| {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(line).unwrap();
            stream.flush().unwrap();
            stream
        };
        let good = dial(&admission(4321, Some("sesame")));
        let _bad_token = dial(&admission(1, Some("wrong")));
        let _not_json = dial(b"hello?\n");

        assert!(
            wait_for(Duration::from_secs(5), || gate.connected() == 1),
            "admission timed out"
        );
        let link = gate.take().expect("admitted");
        assert_eq!(link.pid(), 4321, "only the token holder is admitted");
        assert!(!link.owned());
        assert_eq!(gate.connected(), 1);
        assert!(gate.take().is_none(), "rejects never reach the pool");

        // Dropping the adopted link returns the gauge to zero.
        drop(link);
        drop(good);
        assert_eq!(gate.connected(), 0);
        gate.stop();
    }

    #[test]
    fn sweep_evicts_dead_pooled_workers() {
        let gate = RemoteGate::bind("127.0.0.1:0", None).unwrap();
        let mut stream = TcpStream::connect(gate.addr()).unwrap();
        stream.write_all(&admission(9, None)).unwrap();
        stream.flush().unwrap();
        assert!(
            wait_for(Duration::from_secs(5), || gate.connected() == 1),
            "admission timed out"
        );
        // The worker dies while pooled; the sweep notices without any
        // job ever adopting the session.
        drop(stream);
        assert!(
            wait_for(Duration::from_secs(5), || gate.connected() == 0),
            "sweep missed the dead worker"
        );
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

    #[test]
    fn a_session_over_a_socket_pair_answers_and_ends_at_eof() {
        let spec = crate::spec::JobSpec::default_axes("pair", leakage_workloads::Scale::Test);
        let hello = Hello {
            job_id: spec.id(),
            spec: spec.clone(),
        };
        let assign = Assign {
            chunk: 0,
            start: 0,
            end: 2,
        };
        let (mut ours, theirs) = UnixStream::pair().unwrap();
        let worker = std::thread::spawn(move || {
            serve_session(Stream::Unix(theirs), Duration::from_secs(60))
        });
        ours.write_all(format!("{}\n{}\n", hello.encode(), assign.encode()).as_bytes())
            .unwrap();
        ours.shutdown(Shutdown::Write).unwrap();
        let mut text = String::new();
        ours.read_to_string(&mut text).unwrap();
        assert!(worker.join().unwrap().unwrap(), "a hello was served");
        let (ready, rest) = text.split_once('\n').unwrap();
        assert!(matches!(
            WorkerFrame::parse(ready),
            Ok(WorkerFrame::Ready(_))
        ));
        assert_eq!(rest, chunk_response(&spec, ProfileStore::global(), &assign));
    }
}
