//! Daemon lifecycle: `Daemon::join` returns with every daemon thread gone
//! and every client connection closed, idle clients and subscribers
//! included. A test binary of its own, so no other test's daemon threads
//! show up in this process.

use newtond::{Client, Daemon, DaemonConfig};
use std::io::Read;
use std::net::TcpStream;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(60);

/// Names of this process's daemon threads (empty where `/proc` is not
/// available).
fn daemon_threads() -> Vec<String> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return Vec::new() };
    let mut names: Vec<String> = tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_string())
        .filter(|name| name.starts_with("newtond-"))
        .collect();
    names.sort();
    names
}

#[test]
fn join_leaves_no_daemon_thread_and_closes_every_connection() {
    let daemon = Daemon::start(DaemonConfig::default(), "127.0.0.1:0").expect("bind");
    let addr = daemon.addr().to_string();
    let mut ctl = Client::connect(&addr, TIMEOUT).expect("connect");
    let mut idle = TcpStream::connect(&addr).expect("idle connect");
    idle.set_read_timeout(Some(TIMEOUT)).unwrap();
    // The acceptor takes connections in arrival order, so once the
    // subscription is acknowledged the idle connection has its thread.
    let mut sub = Client::connect(&addr, TIMEOUT)
        .expect("subscriber connect")
        .subscribe()
        .expect("subscribe");
    ctl.ping().expect("ping");
    if cfg!(target_os = "linux") {
        assert_eq!(
            daemon_threads(),
            ["newtond-accept", "newtond-conn", "newtond-conn", "newtond-conn", "newtond-core"]
        );
    }

    ctl.shutdown().expect("shutdown acknowledged");
    daemon.join();
    assert_eq!(daemon_threads(), Vec::<String>::new(), "a daemon thread outlived join");
    let mut rest = Vec::new();
    assert_eq!(idle.read_to_end(&mut rest).expect("idle connection closed"), 0);
    assert!(sub.next_event().expect("stream ends cleanly").is_none());
}
