//! The open-loop load generator: sends on a fixed schedule from one
//! thread, multiplexing its connections with epoll so a stalled response
//! never delays the next send while a connection is free. (Closed loops
//! use `ltm_serve::HttpClient`.)

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Operation types, each with its own accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    Query,
    Batch,
    Ingest,
    Refit,
    Fact,
    Admin,
}

impl Op {
    pub fn name(self) -> &'static str {
        match self {
            Op::Query => "query",
            Op::Batch => "batch",
            Op::Ingest => "ingest",
            Op::Refit => "refit",
            Op::Fact => "fact",
            Op::Admin => "admin",
        }
    }
}

/// One finished request. `status` is 0 on a transport error.
#[derive(Debug, Clone)]
pub struct Done {
    pub op: Op,
    /// The job's tag.
    pub tag: usize,
    pub due: Instant,
    /// When the generator noticed the request was due: its own lag,
    /// apart from any wait for a free connection.
    pub noticed: Instant,
    pub sent: Instant,
    pub done: Instant,
    pub status: u16,
}

impl Done {
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// Latency in milliseconds from when the generator picked the request
    /// up at its due time: waiting for a free connection (a backlog the
    /// server caused) counts, the generator's own wake-up lag
    /// ([`Done::late_ms`], reported on its own) does not.
    pub fn latency_ms(&self) -> f64 {
        self.done.duration_since(self.noticed).as_secs_f64() * 1e3
    }

    /// How late the generator itself was, in milliseconds.
    pub fn late_ms(&self) -> f64 {
        self.noticed.duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// One scheduled request of an open loop.
#[derive(Debug, Clone)]
pub struct Job {
    /// Offset from the loop's start at which it is due.
    pub due: Duration,
    pub op: Op,
    /// Caller's label, handed back in [`Done::tag`] (e.g. a batch index).
    pub tag: usize,
    /// Which of the loop's connection pools sends it.
    pub lane: usize,
    pub method: &'static str,
    pub path: String,
    pub body: String,
}

/// Renders a keep-alive HTTP/1.1 request.
pub fn request_bytes(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Parses one complete response off the front of `buf`, returning
/// `(status, body, bytes consumed)`, or `None` while incomplete.
pub fn parse_response(buf: &[u8]) -> io::Result<Option<(u16, String, usize)>> {
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_owned());
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut length = 0usize;
    for line in head.split("\r\n").skip(1) {
        if let Some((k, v)) = line.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                length = v.trim().parse().map_err(|_| bad("bad content-length"))?;
            }
        }
    }
    let end = head_end + 4 + length;
    if buf.len() < end {
        return Ok(None);
    }
    let body = String::from_utf8_lossy(&buf[head_end + 4..end]).into_owned();
    Ok(Some((status, body, end)))
}

/// A connection slot of the open loop.
struct Slot {
    lane: usize,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    busy: Option<InFlight>,
}

/// A request on the wire.
#[derive(Clone, Copy)]
struct InFlight {
    tag: usize,
    op: Op,
    due: Instant,
    noticed: Instant,
    sent: Instant,
}

impl InFlight {
    fn finish(self, status: u16) -> Done {
        Done {
            op: self.op,
            tag: self.tag,
            due: self.due,
            noticed: self.noticed,
            sent: self.sent,
            done: Instant::now(),
            status,
        }
    }
}

/// How long an open loop waits for in-flight requests after its window
/// closes before counting them as failed.
const DRAIN: Duration = Duration::from_secs(60);

/// Runs `jobs` (sorted by `due`), sending each when it is due — or as
/// soon as a connection of its lane frees up after that — and reports
/// every finished request to `on_done`. Lane `l` owns `lanes[l]`
/// connections, so one kind of request stalling in the server cannot
/// take the connections of another. Jobs due after `until` are not
/// sent. Returns once every sent request has finished.
pub fn open_loop(
    addr: SocketAddr,
    lanes: &[usize],
    start: Instant,
    until: Instant,
    jobs: impl IntoIterator<Item = Job>,
    on_done: &mut dyn FnMut(Done),
) -> io::Result<()> {
    let epfd = epoll::create(true)?;
    let result = drive(epfd, addr, lanes, start, until, jobs, on_done);
    let _ = epoll::close(epfd);
    result
}

fn drive(
    epfd: i32,
    addr: SocketAddr,
    lanes: &[usize],
    start: Instant,
    until: Instant,
    jobs: impl IntoIterator<Item = Job>,
    on_done: &mut dyn FnMut(Done),
) -> io::Result<()> {
    let connect = |i: usize| -> io::Result<TcpStream> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        epoll::ctl(
            epfd,
            epoll::ControlOptions::EpollCtlAdd,
            s.as_raw_fd(),
            epoll::Event::new(epoll::events::EPOLLIN, i as u64),
        )?;
        Ok(s)
    };
    let mut slots: Vec<Slot> = lanes
        .iter()
        .enumerate()
        .flat_map(|(lane, &n)| std::iter::repeat_n(lane, n))
        .enumerate()
        .map(|(i, lane)| {
            Ok(Slot {
                lane,
                stream: Some(connect(i)?),
                buf: Vec::new(),
                busy: None,
            })
        })
        .collect::<io::Result<_>>()?;
    let mut jobs = jobs.into_iter().peekable();
    let mut waiting: Vec<VecDeque<(Job, Instant)>> = vec![VecDeque::new(); lanes.len()];
    let mut events = vec![epoll::Event::new(0, 0); slots.len()];
    let mut chunk = vec![0u8; 64 * 1024];
    loop {
        let now = Instant::now();
        while let Some(job) = jobs.peek() {
            let due = start + job.due;
            if due > now || due > until {
                break;
            }
            let job = jobs.next().expect("peeked");
            waiting[job.lane].push_back((job, now));
        }
        if jobs.peek().is_some_and(|j| start + j.due > until) {
            // Nothing further is due inside the window.
            jobs.by_ref().for_each(drop);
        }
        // Dispatch due jobs to free connections of their lane, oldest
        // first.
        for (i, slot) in slots.iter_mut().enumerate() {
            if slot.busy.is_some() {
                continue;
            }
            let Some((job, noticed)) = waiting[slot.lane].pop_front() else {
                continue;
            };
            if slot.stream.is_none() {
                slot.stream = connect(i).ok();
                slot.buf.clear();
            }
            let flight = InFlight {
                tag: job.tag,
                op: job.op,
                due: start + job.due,
                noticed,
                sent: Instant::now(),
            };
            let wire = request_bytes(job.method, &job.path, &job.body);
            match slot.stream.as_mut().map(|s| s.write_all(&wire)) {
                Some(Ok(())) => slot.busy = Some(flight),
                _ => {
                    slot.stream = None;
                    on_done(flight.finish(0));
                }
            }
        }
        let in_flight = slots.iter().any(|s| s.busy.is_some());
        if !in_flight && waiting.iter().all(VecDeque::is_empty) && jobs.peek().is_none() {
            return Ok(());
        }
        if Instant::now() > until + DRAIN {
            for slot in &mut slots {
                if let Some(flight) = slot.busy.take() {
                    on_done(flight.finish(0));
                }
            }
            return Ok(());
        }
        // Wake when the next job is due, rounded up to epoll's whole
        // milliseconds (the latencies run from `noticed`, so the rounding
        // shows only in `Done::late_ms`), and at least every 50 ms for
        // the drain checks.
        let timeout = jobs.peek().map_or(50, |j| {
            let wait = (start + j.due).saturating_duration_since(Instant::now());
            wait.as_micros().div_ceil(1_000).min(50) as i32
        });
        let ready = epoll::wait(epfd, timeout, &mut events)?;
        for ev in &events[..ready] {
            let i = ev.data() as usize;
            let slot = &mut slots[i];
            let Some(stream) = slot.stream.as_mut() else {
                continue;
            };
            let read = stream.read(&mut chunk);
            let closed = match read {
                Ok(0) | Err(_) => true,
                Ok(n) => {
                    slot.buf.extend_from_slice(&chunk[..n]);
                    match parse_response(&slot.buf) {
                        Ok(Some((status, _, used))) => {
                            slot.buf.drain(..used);
                            if let Some(flight) = slot.busy.take() {
                                on_done(flight.finish(status));
                            }
                            false
                        }
                        Ok(None) => false,
                        Err(_) => true,
                    }
                }
            };
            if closed {
                slot.stream = None;
                if let Some(flight) = slot.busy.take() {
                    on_done(flight.finish(0));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_framed_responses() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}HTTP/1.1 404";
        let (status, body, used) = parse_response(wire).unwrap().unwrap();
        assert_eq!((status, body.as_str()), (200, "{}"));
        assert_eq!(parse_response(&wire[used..]).unwrap(), None);
        assert_eq!(
            parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nab").unwrap(),
            None
        );
    }
}
