//! Load generation against rock-serve over loopback HTTP/1.1: an open
//! loop (requests sent on a fixed schedule, as from independent users)
//! and a closed loop (each connection sends its next batch when the
//! previous one is answered). Each connection is one thread with one
//! keep-alive socket; a thread waits for a due time by sleeping, never
//! by spinning, so the generator does not take a core from the server.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::stats::Samples;

/// The query pool: request bodies and the exact response bodies the
/// server must return for them.
#[derive(Debug)]
pub(crate) struct Queries {
    /// One `{"items":[...]}` line per point.
    pub(crate) bodies: Vec<String>,
    /// The `/label` response body for each point.
    pub(crate) expected: Vec<String>,
}

/// One keep-alive client connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one POST and reads the response: `(status, body)`.
    fn post(&mut self, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        let request = format!(
            "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer.write_all(request.as_bytes())?;
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_owned());
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("no status line"))?;
        let mut length = None;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed in the headers"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some(v) = header.strip_prefix("Content-Length: ") {
                length = v.parse().ok();
            }
        }
        let mut body = vec![0; length.ok_or_else(|| bad("no Content-Length"))?];
        self.reader.read_exact(&mut body)?;
        Ok((
            status,
            String::from_utf8(body).map_err(|_| bad("body is not utf-8"))?,
        ))
    }
}

/// Sends `body` on `client`, reconnecting first if the connection is
/// gone. Returns whether the answer was `200` with exactly `expected`.
fn exchange(client: &mut Option<Client>, addr: SocketAddr, body: &str, expected: &str) -> bool {
    if client.is_none() {
        *client = Client::connect(addr).ok();
    }
    let Some(c) = client.as_mut() else {
        return false;
    };
    match c.post("/label", body) {
        Ok((status, answer)) => status == 200 && answer == expected,
        Err(_) => {
            *client = None;
            false
        }
    }
}

/// The open-loop schedule: request `i` is due `i / rate` seconds after
/// the start, and connection `c` of `conns` sends the requests with
/// `i % conns == c`, in order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Schedule {
    /// Requests per second, over all connections.
    pub(crate) rate: f64,
    /// Connections (one sending thread each).
    pub(crate) conns: usize,
}

impl Schedule {
    /// Seconds after the start at which request `i` is due.
    pub(crate) fn due(&self, i: usize) -> f64 {
        i as f64 / self.rate
    }

    /// The requests connection `conn` sends, out of `total`.
    pub(crate) fn requests(&self, conn: usize, total: usize) -> impl Iterator<Item = usize> {
        (conn..total).step_by(self.conns)
    }
}

/// When one open-loop request was due, sent and answered, in seconds
/// from the start of the phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Timing {
    /// Scheduled send time.
    pub(crate) due: f64,
    /// Actual send time (later than `due` when the connection was still
    /// busy or the sleep overshot).
    pub(crate) sent: f64,
    /// Response fully read.
    pub(crate) done: f64,
}

impl Timing {
    /// Latency counted from the due time, so a stall is charged to every
    /// request it delays.
    pub(crate) fn latency(&self) -> f64 {
        self.done - self.due
    }

    /// How late the generator sent the request.
    pub(crate) fn lateness(&self) -> f64 {
        (self.sent - self.due).max(0.0)
    }
}

/// What an open-loop phase measured.
#[derive(Debug)]
pub(crate) struct OpenLoop {
    /// Latency from due time, ms.
    pub(crate) latency_ms: Samples,
    /// Send lateness, ms.
    pub(crate) lateness_ms: Samples,
    /// Mean lateness of the last quarter of requests (by due time) minus
    /// that of the first quarter, ms: positive and large when a backlog
    /// grows during the phase.
    pub(crate) backlog_growth_ms: f64,
    /// Requests sent.
    pub(crate) requests: u64,
    /// Requests that failed or got a wrong answer.
    pub(crate) failed: u64,
}

impl OpenLoop {
    /// Summarizes the timings of one phase (in any order). `None` when
    /// there are none.
    pub(crate) fn from_timings(mut timings: Vec<Timing>, failed: u64) -> Option<OpenLoop> {
        timings.sort_by(|a, b| a.due.total_cmp(&b.due));
        let quarter = (timings.len() / 4).max(1);
        let mean_lateness =
            |t: &[Timing]| t.iter().map(Timing::lateness).sum::<f64>() / t.len() as f64;
        let growth = mean_lateness(&timings[timings.len().saturating_sub(quarter)..])
            - mean_lateness(&timings[..quarter.min(timings.len())]);
        Some(OpenLoop {
            latency_ms: Samples::new(timings.iter().map(|t| t.latency() * 1e3).collect())?,
            lateness_ms: Samples::new(timings.iter().map(|t| t.lateness() * 1e3).collect())?,
            backlog_growth_ms: growth * 1e3,
            requests: timings.len() as u64,
            failed,
        })
    }
}

/// Sends `rate × seconds` single-point requests on `schedule`, cycling
/// through the query pool, and checks every answer.
pub(crate) fn open_loop(
    addr: SocketAddr,
    queries: &Queries,
    schedule: Schedule,
    seconds: f64,
) -> Result<OpenLoop, String> {
    let total = ((schedule.rate * seconds).round() as usize).max(schedule.conns);
    let start = Instant::now() + Duration::from_millis(5);
    let per_conn = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..schedule.conns)
            .map(|conn| {
                scope.spawn(move || {
                    let mut client = None;
                    let mut timings = Vec::new();
                    let mut failed = 0u64;
                    for i in schedule.requests(conn, total) {
                        let due = start + Duration::from_secs_f64(schedule.due(i));
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let q = i % queries.bodies.len();
                        let ok =
                            exchange(&mut client, addr, &queries.bodies[q], &queries.expected[q]);
                        let done = Instant::now();
                        failed += u64::from(!ok);
                        let secs = |t: Instant| t.saturating_duration_since(start).as_secs_f64();
                        timings.push(Timing {
                            due: schedule.due(i),
                            sent: secs(sent),
                            done: secs(done),
                        });
                    }
                    (timings, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "load generator thread panicked".to_owned())
            })
            .collect::<Result<Vec<_>, _>>()
    })?;
    let failed = per_conn.iter().map(|(_, f)| f).sum();
    let timings = per_conn.into_iter().flat_map(|(t, _)| t).collect();
    OpenLoop::from_timings(timings, failed).ok_or_else(|| "open loop sent nothing".into())
}

/// What a closed-loop batched phase measured.
#[derive(Debug)]
pub(crate) struct ClosedLoop {
    /// Points answered per second over the phase.
    pub(crate) points_per_s: f64,
    /// Time of each batched request, ms.
    pub(crate) request_ms: Samples,
    /// Requests sent.
    pub(crate) requests: u64,
    /// Requests that failed or got a wrong answer.
    pub(crate) failed: u64,
}

/// `conns` connections each send `batch`-point NDJSON bodies back to
/// back for `seconds`, cycling through the query pool; every answer is
/// checked line by line.
pub(crate) fn closed_loop(
    addr: SocketAddr,
    queries: &Queries,
    batch: usize,
    conns: usize,
    seconds: f64,
) -> Result<ClosedLoop, String> {
    let pool = queries.bodies.len();
    let batches: Vec<(String, String)> = (0..pool.div_ceil(batch))
        .map(|b| {
            let mut body = String::new();
            let mut expected = String::new();
            for i in b * batch..b * batch + batch {
                body.push_str(&queries.bodies[i % pool]);
                body.push('\n');
                expected.push_str(&queries.expected[i % pool]);
            }
            (body, expected)
        })
        .collect();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_conn = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|conn| {
                let batches = &batches;
                scope.spawn(move || {
                    let mut client = None;
                    let mut times = Vec::new();
                    let mut failed = 0u64;
                    let mut b = conn;
                    while Instant::now() < deadline {
                        let (body, expected) = &batches[b % batches.len()];
                        let sent = Instant::now();
                        failed += u64::from(!exchange(&mut client, addr, body, expected));
                        times.push(sent.elapsed().as_secs_f64() * 1e3);
                        b += conns;
                    }
                    (times, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "load generator thread panicked".to_owned())
            })
            .collect::<Result<Vec<_>, _>>()
    })?;
    let wall = start.elapsed().as_secs_f64();
    let failed: u64 = per_conn.iter().map(|(_, f)| f).sum();
    let times: Vec<f64> = per_conn.into_iter().flat_map(|(t, _)| t).collect();
    let requests = times.len() as u64;
    Ok(ClosedLoop {
        points_per_s: ((requests - failed) as usize * batch) as f64 / wall,
        request_ms: Samples::new(times).ok_or("closed loop sent nothing")?,
        requests,
        failed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_spaces_requests_by_the_rate_and_splits_them_over_connections() {
        let s = Schedule {
            rate: 1000.0,
            conns: 2,
        };
        assert_eq!(s.due(0), 0.0);
        assert!((s.due(1500) - 1.5).abs() < 1e-12);
        assert_eq!(s.requests(0, 7).collect::<Vec<_>>(), vec![0, 2, 4, 6]);
        assert_eq!(s.requests(1, 7).collect::<Vec<_>>(), vec![1, 3, 5]);
        let mut all: Vec<usize> = (0..2).flat_map(|c| s.requests(c, 7)).collect();
        all.sort_unstable();
        assert_eq!(all, (0..7).collect::<Vec<_>>());
    }

    /// Timings of one connection that sends on schedule but takes
    /// `service` seconds per request: it can only send when the previous
    /// answer is in.
    fn simulate(rate: f64, service: f64, n: usize) -> Vec<Timing> {
        let s = Schedule { rate, conns: 1 };
        let mut free = 0.0f64;
        s.requests(0, n)
            .map(|i| {
                let due = s.due(i);
                let sent = due.max(free);
                free = sent + service;
                Timing {
                    due,
                    sent,
                    done: free,
                }
            })
            .collect()
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        let t = Timing {
            due: 1.0,
            sent: 1.5,
            done: 1.75,
        };
        assert_eq!(t.latency(), 0.75);
        assert_eq!(t.lateness(), 0.5);
        let early = Timing {
            due: 1.0,
            sent: 0.99,
            done: 1.25,
        };
        assert_eq!(early.lateness(), 0.0);
    }

    #[test]
    fn a_server_that_keeps_up_shows_no_lateness() {
        let run = OpenLoop::from_timings(simulate(1000.0, 0.0002, 400), 0).unwrap();
        assert_eq!(run.requests, 400);
        assert_eq!(run.lateness_ms.percentile(1.0), 0.0);
        assert!((run.latency_ms.median() - 0.2).abs() < 1e-9);
        assert!(run.backlog_growth_ms.abs() < 1e-9);
    }

    #[test]
    fn a_slow_server_builds_a_backlog_that_every_later_request_pays() {
        // 1.5 ms of service per request at 1000 requests/s: each request
        // starts 0.5 ms later than the one before.
        let run = OpenLoop::from_timings(simulate(1000.0, 0.0015, 400), 3).unwrap();
        assert_eq!(run.failed, 3);
        assert!((run.lateness_ms.percentile(1.0) - 399.0 * 0.5).abs() < 1e-6);
        assert!(run.latency_ms.percentile(1.0) > 199.0);
        assert!(run.backlog_growth_ms > 100.0, "{}", run.backlog_growth_ms);
    }
}
