//! The one load generator all three `serve_*` workloads share.
//!
//! * **Open loop** ([`run_open_loop`]): operations are sent on a seeded
//!   Poisson schedule whether or not earlier ones have completed, as
//!   independent users would, so a slow system builds a queue. Each query
//!   is timed from the instant it was *due*, not from when the generator
//!   got round to sending it, so a stall is charged to every request it
//!   delayed; how late the generator itself ran is reported separately.
//! * **Closed loop** ([`run_closed_loop`]): a fixed window of requests is
//!   kept outstanding, as callers that each wait for a reply would; a slow
//!   system receives less load.
//!
//! Threads: one generator, plus in the open loop one collector that parks
//! on tickets in submission order (the server is FIFO per tenant, so the
//! collector observes each completion as it happens).

use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use ann_core::topk::Neighbor;
use ann_core::vector::VecSet;
use ann_serve::{ServeError, ServeHandle, Ticket};
use rand::rngs::StdRng;
use rand::Rng;

use crate::spans::{SpanLog, NONE};

/// Due times (ns from the schedule's start) of a Poisson process of
/// `rate_per_s` over `horizon`: exponential gaps drawn from `rng`.
pub fn poisson_schedule(rng: &mut StdRng, rate_per_s: f64, horizon: Duration) -> Vec<u64> {
    let horizon_ns = horizon.as_nanos() as f64;
    let mut due = Vec::with_capacity((rate_per_s * horizon.as_secs_f64() * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen::<f64>().max(1e-300);
        t += -u.ln() / rate_per_s * 1e9;
        if t >= horizon_ns {
            return due;
        }
        due.push(t as u64);
    }
}

/// One scheduled operation. Queries and insert vectors are indices into
/// the sets handed to [`run_open_loop`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Query { request: usize },
    Insert { id: u32, vector: usize },
    Delete { id: u32 },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timed {
    pub due_ns: u64,
    pub op: Op,
}

/// Merge schedules into one plan ordered by due time (ties keep the order
/// of `parts`, so the plan is a pure function of its inputs).
pub fn merge_plans(parts: Vec<Vec<Timed>>) -> Vec<Timed> {
    let mut all: Vec<Timed> = parts.into_iter().flatten().collect();
    all.sort_by_key(|t| t.due_ns);
    all
}

pub struct OpenLoopOutcome {
    /// Indexed by query request; `None` if it failed.
    pub results: Vec<Option<Vec<Neighbor>>>,
    /// Due → result, per completed query.
    pub latency_s: Vec<f64>,
    /// Completion time of each completed query, from the schedule's start.
    pub done_s: Vec<f64>,
    /// How long after its due time each operation was actually sent.
    pub late_s: Vec<f64>,
    /// Time inside `ServeHandle::submit` per query (traced pass only).
    pub submit_s: Vec<f64>,
    /// Rejected submits, failed tickets, refused mutations.
    pub failed: u64,
    /// First due time → last completion.
    pub wall_s: f64,
}

/// Drive `plan` against `handle` on its schedule.
pub fn run_open_loop(
    handle: &ServeHandle,
    plan: &[Timed],
    queries: &VecSet<f32>,
    inserts: &VecSet<f32>,
    log: &mut SpanLog,
) -> OpenLoopOutcome {
    let nreq = plan
        .iter()
        .filter(|t| matches!(t.op, Op::Query { .. }))
        .count();
    let traced = log.enabled();
    let start = Instant::now() + Duration::from_millis(2);
    let at = move |ns: u64| start + Duration::from_nanos(ns);

    struct Sent {
        submit_start: Instant,
        submit_end: Option<Instant>,
        failed: bool,
    }
    /// When a ticket resolved, and to what.
    type Delivered = (Instant, Result<Vec<Neighbor>, ServeError>);
    let (tx, rx) = mpsc::channel::<(usize, Ticket)>();
    let (sent, done) = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut done: Vec<Option<Delivered>> = (0..nreq).map(|_| None).collect();
            for (request, ticket) in rx {
                let res = ticket.wait();
                done[request] = Some((Instant::now(), res));
            }
            done
        });
        let generator = scope.spawn(move || {
            let mut sent = Vec::with_capacity(plan.len());
            for t in plan {
                let due = at(t.due_ns);
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                let submit_start = Instant::now();
                let failed = match t.op {
                    Op::Query { request } => match handle.submit(0, queries.get(request)) {
                        Ok(ticket) => tx.send((request, ticket)).is_err(),
                        Err(_) => true,
                    },
                    Op::Insert { id, vector } => handle.insert(id, inserts.get(vector)).is_err(),
                    Op::Delete { id } => handle.delete(id).is_err(),
                };
                sent.push(Sent {
                    submit_start,
                    submit_end: traced.then(Instant::now),
                    failed,
                });
            }
            drop(tx);
            sent
        });
        let sent = generator.join().expect("generator thread panicked");
        (sent, collector.join().expect("collector thread panicked"))
    });

    let mut out = OpenLoopOutcome {
        results: vec![None; nreq],
        latency_s: Vec::with_capacity(nreq),
        done_s: Vec::with_capacity(nreq),
        late_s: Vec::with_capacity(plan.len()),
        submit_s: Vec::new(),
        failed: 0,
        wall_s: 0.0,
    };
    let mut last_done = start;
    let mut done = done;
    for (t, s) in plan.iter().zip(&sent) {
        let due = at(t.due_ns);
        out.late_s
            .push(s.submit_start.saturating_duration_since(due).as_secs_f64());
        out.failed += s.failed as u64;
        match t.op {
            Op::Query { request } => {
                let outcome = done[request].take();
                let root = match &outcome {
                    Some((at_done, _)) => log.push("request", due, *at_done, NONE, request as u64),
                    None => NONE,
                };
                if let Some(end) = s.submit_end {
                    out.submit_s.push((end - s.submit_start).as_secs_f64());
                    log.push(
                        "ann_serve.submit",
                        s.submit_start,
                        end,
                        root,
                        request as u64,
                    );
                    if let Some((at_done, _)) = &outcome {
                        // queue wait + batching delay + engine + demux: not
                        // separable from outside the server
                        log.push("ann_serve.wait", end, *at_done, root, request as u64);
                    }
                }
                match outcome {
                    Some((at_done, Ok(res))) => {
                        out.latency_s.push((at_done - due).as_secs_f64());
                        out.done_s.push((at_done - start).as_secs_f64());
                        last_done = last_done.max(at_done);
                        out.results[request] = Some(res);
                    }
                    Some((_, Err(_))) => out.failed += 1,
                    // rejected at submit; already counted in `s.failed`
                    None => {}
                }
            }
            Op::Insert { .. } | Op::Delete { .. } => {
                if let Some(end) = s.submit_end {
                    let name = match t.op {
                        Op::Insert { .. } => "ann_serve.insert",
                        _ => "ann_serve.delete",
                    };
                    log.push(name, s.submit_start, end, NONE, NONE);
                }
            }
        }
    }
    out.wall_s = (last_done - start).as_secs_f64();
    out
}

/// When a closed loop stops issuing new requests.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    After(Duration),
    Requests(usize),
}

pub struct ClosedLoopOutcome {
    /// Submit → result, per completed request.
    pub latency_s: Vec<f64>,
    /// Completion time of each completed request, from the loop's start.
    pub done_s: Vec<f64>,
    /// Time inside `ServeHandle::submit` (traced pass only).
    pub submit_s: Vec<f64>,
    pub completed: u64,
    pub failed: u64,
    pub wall_s: f64,
}

/// Keep `window` requests outstanding until `stop`; `next` names the pool
/// row of each new request and `on_result` sees every delivered result.
pub fn run_closed_loop(
    handle: &ServeHandle,
    pool: &VecSet<f32>,
    window: usize,
    stop: Stop,
    mut next: impl FnMut() -> usize,
    mut on_result: impl FnMut(usize, &[Neighbor]),
    log: &mut SpanLog,
) -> ClosedLoopOutcome {
    #[derive(Clone, Copy)]
    struct Sent {
        row: usize,
        request: u64,
        submit_start: Instant,
        submit_end: Option<Instant>,
    }
    let traced = log.enabled();
    let mut out = ClosedLoopOutcome {
        latency_s: Vec::new(),
        done_s: Vec::new(),
        submit_s: Vec::new(),
        completed: 0,
        failed: 0,
        wall_s: 0.0,
    };
    let start = Instant::now();
    let mut settle =
        |s: Sent, res: Result<Vec<Neighbor>, ServeError>, out: &mut ClosedLoopOutcome| {
            let done = Instant::now();
            match res {
                Ok(r) => {
                    out.latency_s.push((done - s.submit_start).as_secs_f64());
                    out.done_s.push((done - start).as_secs_f64());
                    out.completed += 1;
                    on_result(s.row, &r);
                }
                Err(_) => out.failed += 1,
            }
            if let Some(end) = s.submit_end {
                out.submit_s.push((end - s.submit_start).as_secs_f64());
                let root = log.push("request", s.submit_start, done, NONE, s.request);
                log.push("ann_serve.submit", s.submit_start, end, root, s.request);
                log.push("ann_serve.wait", end, done, root, s.request);
            }
        };

    let mut pending: VecDeque<(Ticket, Sent)> = VecDeque::with_capacity(window);
    let mut issued = 0usize;
    loop {
        let keep_going = match stop {
            Stop::After(d) => start.elapsed() < d,
            Stop::Requests(n) => issued < n,
        };
        if !keep_going {
            break;
        }
        if pending.len() == window {
            let (ticket, s) = pending.pop_front().expect("window is non-empty");
            settle(s, ticket.wait(), &mut out);
        }
        let row = next();
        let submit_start = Instant::now();
        let ticket = handle.submit(0, pool.get(row));
        let s = Sent {
            row,
            request: issued as u64,
            submit_start,
            submit_end: traced.then(Instant::now),
        };
        issued += 1;
        match ticket {
            Err(_) => out.failed += 1,
            // a cache hit resolves inside submit
            Ok(ticket) => match ticket.try_take() {
                Some(res) => settle(s, res, &mut out),
                None => pending.push_back((ticket, s)),
            },
        }
    }
    for (ticket, s) in pending {
        settle(s, ticket.wait(), &mut out);
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::stream;

    #[test]
    fn same_seed_same_due_times() {
        let a = poisson_schedule(&mut stream(42, 9), 400.0, Duration::from_secs(5));
        let b = poisson_schedule(&mut stream(42, 9), 400.0, Duration::from_secs(5));
        let c = poisson_schedule(&mut stream(43, 9), 400.0, Duration::from_secs(5));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn schedule_is_ordered_bounded_and_at_rate() {
        let due = poisson_schedule(&mut stream(1, 9), 400.0, Duration::from_secs(20));
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(due.iter().all(|&t| t < 20_000_000_000));
        // 8,000 expected, sd ~ 89
        assert!((7600..8400).contains(&due.len()), "{} arrivals", due.len());
        // exponential gaps: the median gap is ln 2 / rate
        let mut gaps: Vec<u64> = due.windows(2).map(|w| w[1] - w[0]).collect();
        gaps.sort_unstable();
        let med = gaps[gaps.len() / 2] as f64 * 1e-9;
        assert!((med - 2f64.ln() / 400.0).abs() < 2e-4, "median gap {med}");
    }

    #[test]
    fn merged_plan_is_sorted_and_keeps_everything() {
        let q = |due_ns, request| Timed {
            due_ns,
            op: Op::Query { request },
        };
        let d = |due_ns, id| Timed {
            due_ns,
            op: Op::Delete { id },
        };
        let plan = merge_plans(vec![vec![q(5, 0), q(9, 1)], vec![d(1, 7), d(9, 8)]]);
        assert_eq!(plan, vec![d(1, 7), q(5, 0), q(9, 1), d(9, 8)]);
    }
}
