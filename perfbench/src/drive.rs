//! The load generator: two client threads, each owning one keep-alive
//! connection, sending a plan's ops after a think time (a request is due
//! when its think time ends) or closed loop (next op as soon as the
//! previous answer arrived).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::daemon::Client;
use crate::gen::Op;

/// Which part of the run a request belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Prewarm,
    Window,
    Probe,
    Panel,
    /// The `/metrics` scrapes that bracket the window.
    Bracket,
}

/// One request as the client saw it. Think-time requests are due when
/// their think time ends; closed-loop ones are due when sent.
#[derive(Debug, Clone)]
pub struct Record {
    pub op: usize,
    pub phase: Phase,
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
    /// Which of the two connections sent it.
    pub conn: usize,
    /// HTTP status, or 0 after a transport error.
    pub status: u16,
    pub body: Vec<u8>,
    /// The client-side span of this request was recorded in the window
    /// (traced runs trace half of the window's requests).
    pub traced: bool,
}

impl Record {
    /// Latency from the send, in milliseconds. Every workload is a
    /// closed loop: a connection sends only after its previous answer
    /// and think time, so a late send is the generator's own wake-up
    /// delay, with nothing queued at the server. It is reported as lag,
    /// not charged to the server.
    pub fn latency_ms(&self) -> f64 {
        self.done.duration_since(self.sent).as_secs_f64() * 1e3
    }

    /// Time on the wire and in the server, in microseconds.
    pub fn service_us(&self) -> f64 {
        self.done.duration_since(self.sent).as_secs_f64() * 1e6
    }

    /// How late the generator sent it, in milliseconds.
    pub fn lag_ms(&self) -> f64 {
        self.sent.duration_since(self.due).as_secs_f64() * 1e3
    }
}

fn send(
    (conn, client): (usize, &mut Client),
    ops: &[Op],
    op: usize,
    phase: Phase,
    due: Instant,
) -> Record {
    let sent = Instant::now();
    let (status, body) = match client.exchange(&ops[op].bytes) {
        Ok(r) => (r.status, r.body),
        Err(_) => (0, Vec::new()),
    };
    Record {
        op,
        phase,
        due,
        sent,
        done: Instant::now(),
        conn,
        status,
        body,
        traced: false,
    }
}

/// Send one op on `client` now.
pub fn one(client: &mut Client, ops: &[Op], op: usize, phase: Phase) -> Record {
    send((0, client), ops, op, phase, Instant::now())
}

/// Closed loop over `list` on both clients until the list is exhausted
/// or `until` passes; requests in flight at `until` complete.
pub fn closed(
    clients: &mut [Client; 2],
    ops: &[Op],
    list: &[usize],
    phase: Phase,
    until: Option<Instant>,
) -> Vec<Record> {
    let next = AtomicUsize::new(0);
    run_two(clients, |me, client| {
        let mut out = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= list.len() || until.is_some_and(|u| Instant::now() >= u) {
                return out;
            }
            out.push(send((me, client), ops, list[i], phase, Instant::now()));
        }
    })
}

/// Think time per client from `start` until `until`: after each answer a
/// client waits the think time of its next item, then sends it; the
/// request is due when the think time ends. Returns `None` when a list
/// ran out before the window ended.
pub fn think(
    clients: &mut [Client; 2],
    ops: &[Op],
    lists: [&[(Duration, usize)]; 2],
    start: Instant,
    until: Instant,
) -> Option<Vec<Record>> {
    let ran_out = AtomicUsize::new(0);
    let records = run_two(clients, |me, client| {
        let mut out = Vec::new();
        let mut ready = start;
        for &(pause, op) in lists[me] {
            let due = ready + pause;
            if due >= until {
                return out;
            }
            sleep_until(due);
            let r = send((me, client), ops, op, Phase::Window, due);
            ready = r.done;
            out.push(r);
        }
        ran_out.fetch_add(1, Ordering::Relaxed);
        out
    });
    (ran_out.into_inner() == 0).then_some(records)
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Run `f` on two scoped threads, one per client, and merge their
/// records in send order.
fn run_two<F>(clients: &mut [Client; 2], f: F) -> Vec<Record>
where
    F: Fn(usize, &mut Client) -> Vec<Record> + Sync,
{
    let [a, b] = clients;
    let (mut ra, rb) = std::thread::scope(|s| {
        let f = &f;
        let ha = s.spawn(move || f(0, a));
        let rb = f(1, b);
        (ha.join().expect("client thread panicked"), rb)
    });
    ra.extend(rb);
    ra.sort_by_key(|r| r.sent);
    ra
}

/// Elapsed time from `start` to the last answer.
pub fn span_of(records: &[Record], start: Instant) -> Duration {
    records
        .iter()
        .map(|r| r.done)
        .max()
        .map_or(Duration::ZERO, |d| d.duration_since(start))
}
