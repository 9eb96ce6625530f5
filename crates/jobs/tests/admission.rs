//! The remote-worker gate reads each admission line on its accept
//! thread, so the read must be bounded in length and in *total* time:
//! a peer trickling one byte at a time (every read well inside any
//! per-read timeout) or sending a line that never ends must be dropped
//! within the 2 s admission deadline, and a real worker connecting
//! behind both must still get in.

use leakage_jobs::protocol::SessionHello;
use leakage_jobs::transport::RemoteGate;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The gate's whole-line admission deadline.
const ADMISSION_DEADLINE: Duration = Duration::from_secs(2);

#[test]
fn slow_and_endless_admissions_cannot_block_the_gate() {
    let gate = RemoteGate::bind("127.0.0.1:0", None).expect("gate binds");
    let addr = gate.addr();
    let started = Instant::now();

    // One byte every 500 ms: the line never completes.
    let mut trickler = TcpStream::connect(addr).expect("dial");
    let trickling = Arc::new(AtomicBool::new(true));
    let trickle = {
        let mut stream = trickler.try_clone().expect("clone");
        let trickling = Arc::clone(&trickling);
        std::thread::spawn(move || {
            while trickling.load(Ordering::SeqCst) && stream.write_all(b"{").is_ok() {
                std::thread::sleep(Duration::from_millis(500));
            }
        })
    };
    // 8 KiB without a newline: far past the 1 KiB line cap.
    let mut endless = TcpStream::connect(addr).expect("dial");
    let _ = endless.write_all(&[b'x'; 8 * 1024]);
    // A real worker behind both.
    let mut worker = TcpStream::connect(addr).expect("dial");
    let admission = SessionHello {
        pid: 77,
        token: None,
    }
    .encode()
        + "\n";
    worker.write_all(admission.as_bytes()).expect("admission");

    let limit = ADMISSION_DEADLINE * 2 + Duration::from_secs(3);
    while gate.connected() == 0 && started.elapsed() < limit {
        std::thread::sleep(Duration::from_millis(10));
    }
    let waited = started.elapsed();
    trickling.store(false, Ordering::SeqCst);
    let _ = trickle.join();
    assert_eq!(gate.connected(), 1, "the worker behind both is admitted");
    assert!(gate.take().is_some(), "pooled");
    assert!(
        waited < ADMISSION_DEADLINE * 2 + Duration::from_secs(1),
        "each bad peer held the accept thread at most the deadline: {waited:?}"
    );
    // Both bad peers were dropped: their streams end.
    for peer in [&mut trickler, &mut endless] {
        peer.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        assert!(
            matches!(peer.read(&mut [0u8; 1]), Ok(0) | Err(_)),
            "dropped"
        );
    }
    gate.stop();
}
