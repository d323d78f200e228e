//! Descriptor exhaustion on the event-loop front end.
//!
//! Boots the real `ltm` binary under `ulimit -n 64`, opens connections
//! until `accept` fails with `EMFILE`, and checks that the server waits
//! for descriptors instead of spinning on its level-triggered listener:
//! its CPU time over one second stays small, and `/healthz` answers again
//! once the connections close.

use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ltm_serve::http_call;

/// The descriptor limit the server runs under.
const FD_LIMIT: usize = 64;

/// User + system CPU time of `pid`, in clock ticks (`/proc/<pid>/stat`
/// fields 14 and 15, counted after the parenthesised command name).
fn cpu_ticks(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap();
    let after_comm = &stat[stat.rfind(')').unwrap() + 2..];
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    // after_comm starts at field 3 (state), so field n is index n - 3.
    fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap()
}

fn open_fds(pid: u32) -> usize {
    std::fs::read_dir(format!("/proc/{pid}/fd"))
        .unwrap()
        .count()
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The server process, killed on drop so a failed assertion leaves no
/// server behind.
struct ServerProc(Child);

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn start_limited(port_file: &Path) -> ServerProc {
    let _ = std::fs::remove_file(port_file);
    let child = Command::new("sh")
        .arg("-c")
        .arg(format!("ulimit -n {FD_LIMIT}; exec \"$@\""))
        .arg("sh")
        .arg(env!("CARGO_BIN_EXE_ltm"))
        .arg("serve")
        .args([
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "2",
            "--frontend",
            "epoll",
        ])
        .arg("--port-file")
        .arg(port_file)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ltm serve under ulimit");
    ServerProc(child)
}

#[test]
fn exhausted_descriptors_pause_accept_instead_of_spinning() {
    if !ltm_serve::event_loop::SUPPORTED {
        return;
    }
    let port_file =
        std::env::temp_dir().join(format!("ltm-fd-exhaustion-{}.port", std::process::id()));
    let mut child = start_limited(&port_file);
    let pid = child.0.id();
    let mut addr = String::new();
    wait_until("the port file", || {
        addr = std::fs::read_to_string(&port_file).unwrap_or_default();
        addr.contains(':')
    });
    let addr = addr.trim().to_owned();

    // More connections than the server has descriptors: the kernel
    // completes them into the listen backlog, and the server's accepts
    // fail with EMFILE once its table is full.
    let clients: Vec<TcpStream> = (0..FD_LIMIT + 32)
        .map(|_| TcpStream::connect(&addr).expect("connect into the backlog"))
        .collect();
    wait_until("the server's descriptor table to fill", || {
        open_fds(pid) >= FD_LIMIT
    });

    let before = cpu_ticks(pid);
    std::thread::sleep(Duration::from_secs(1));
    let spent = cpu_ticks(pid) - before;
    assert!(
        spent <= 20,
        "the server burned {spent} clock ticks in one second while out of descriptors"
    );

    // Closing the connections frees descriptors; the backoff re-arms the
    // listener and the server accepts and answers again.
    drop(clients);
    wait_until("/healthz to answer", || {
        matches!(http_call(&addr, "GET", "/healthz", None), Ok((200, _)))
    });

    let _ = http_call(&addr, "POST", "/admin/shutdown", Some(""));
    wait_until("the server to exit", || {
        child.0.try_wait().expect("try_wait").is_some()
    });
    let _ = std::fs::remove_file(&port_file);
}
