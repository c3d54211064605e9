//! Load generation against `service::Service`: the seeded open-loop
//! arrival schedule, the open-loop latency run and the closed-loop
//! capacity run. One thread generates all load.

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, OnceLock};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

use fftmatvec::core::{LinearOperator, OpDirection};
use fftmatvec::numeric::SplitMix64;
use fftmatvec::service::{Response, Service, ServiceStats, Ticket};

use crate::trace::Recorder;

/// One scheduled request: when it is due (seconds after the run
/// starts), its direction, and which pre-generated input it carries.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    pub due_s: f64,
    pub dir: OpDirection,
    pub input: usize,
}

/// Seeded open-loop schedule: exponential inter-arrival gaps at `rate`
/// requests per second, 3:1 forward:adjoint, inputs drawn uniformly from
/// a pool of `pool` vectors per direction. The same seed always gives
/// the same schedule.
pub fn schedule(seed: u64, rate: f64, n: usize, pool: usize) -> Vec<Arrival> {
    let mut rng = SplitMix64::new(seed);
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += -(1.0 - rng.next_f64()).ln() / rate;
            let dir =
                if rng.next_usize(4) == 0 { OpDirection::Adjoint } else { OpDirection::Forward };
            Arrival { due_s: t, dir, input: rng.next_usize(pool) }
        })
        .collect()
}

/// Input vectors per direction a served workload draws from.
pub struct Inputs {
    pub forward: Vec<Vec<f64>>,
    pub adjoint: Vec<Vec<f64>>,
}

impl Inputs {
    pub fn get(&self, dir: OpDirection, i: usize) -> &[f64] {
        match dir {
            OpDirection::Forward => &self.forward[i],
            OpDirection::Adjoint => &self.adjoint[i],
        }
    }
}

/// What the load generator saw. Every request is either rejected at
/// submission or settled through its ticket; the counters must balance
/// against [`ServiceStats`].
#[derive(Default)]
pub struct LoadOutcome {
    pub submitted: u64,
    pub rejected: u64,
    /// Tickets that settled with an error (expired, failed, panicked).
    pub errored: u64,
    /// Settled responses of the wrong length or with non-finite values.
    pub bad_output: u64,
    /// Sampled responses awaiting the solo comparison, then how many were
    /// compared against a solo `apply_into` and how many differed in any
    /// bit.
    sampled: Vec<(Arrival, Vec<f64>)>,
    pub compared: u64,
    pub mismatched: u64,
    /// Per-request latency from due time to completion, ms.
    pub latency_ms: Vec<f64>,
    /// How late the generator submitted each request, ms.
    pub late_ms: Vec<f64>,
    /// Time spent inside `Service::submit`, µs (traced runs only).
    pub submit_us: Vec<f64>,
    /// Largest `Service::queued()` seen right after a submit (traced
    /// runs only).
    pub queue_depth_max: usize,
    /// Completed requests per second (closed loop only).
    pub rps: f64,
}

impl LoadOutcome {
    pub fn failed(&self) -> u64 {
        self.rejected + self.errored + self.bad_output + self.mismatched
    }
}

/// Check the generator's counters over every load run of one service
/// against the service's own.
pub fn balances(runs: &[&LoadOutcome], stats: &ServiceStats) -> bool {
    let sum = |f: fn(&LoadOutcome) -> u64| runs.iter().map(|o| f(o)).sum::<u64>();
    let (submitted, errored) = (sum(|o| o.submitted), sum(|o| o.errored));
    let service_errors = stats.expired + stats.failed + stats.panicked;
    stats.submitted == submitted
        && stats.rejected == sum(|o| o.rejected)
        && stats.completed + service_errors == submitted
        && service_errors == errored
}

/// Records the instant a ticket completes: the service wakes the
/// ticket's waker from its worker right as it stores the response.
struct Stamp(OnceLock<Instant>);

impl Wake for Stamp {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        let _ = self.0.set(Instant::now());
    }
}

/// A submitted request waiting to settle.
struct InFlight {
    arrival: Arrival,
    due: Instant,
    stamp: Arc<Stamp>,
    ticket: Option<Ticket>,
    ready: Option<Response>,
    span: u64,
}

impl InFlight {
    fn settle(mut self) -> (Arrival, Instant, Instant, Response, u64) {
        let resp = match self.ready.take() {
            Some(r) => r,
            None => self.ticket.take().expect("pending request holds its ticket").wait(),
        };
        // The worker stores the response before it wakes the waker, so
        // `wait` can return a moment before the stamp is set.
        let done = loop {
            match self.stamp.0.get() {
                Some(&t) => break t,
                None => std::thread::yield_now(),
            }
        };
        (self.arrival, self.due, done, resp, self.span)
    }
}

/// The single load-generating caller of one registered operator.
pub struct Generator<'a> {
    pub service: &'a Service,
    pub id: &'a str,
    /// The same operator the service serves, for the solo comparison.
    pub solo: &'a (dyn LinearOperator + Send + Sync),
    pub inputs: &'a Inputs,
}

/// One settled response in this many is compared against a solo apply.
const COMPARE_EVERY: usize = 20;

impl Generator<'_> {
    fn submit(
        &self,
        a: Arrival,
        due: Instant,
        out: &mut LoadOutcome,
        rec: Option<&mut Recorder>,
    ) -> Option<InFlight> {
        let input = self.inputs.get(a.dir, a.input).to_vec();
        let t0 = Instant::now();
        let submitted = self.service.submit(self.id, a.dir, input);
        let t1 = Instant::now();
        let mut span = 0;
        if let Some(rec) = rec {
            out.submit_us.push((t1 - t0).as_secs_f64() * 1e6);
            out.queue_depth_max = out.queue_depth_max.max(self.service.queued());
            span = rec.open("service.request", 0, due);
            rec.record("service.submit", span, t0, t1);
        }
        let mut ticket = match submitted {
            Ok(t) => t,
            Err(e) => {
                eprintln!("perfbench: submit rejected: {e}");
                out.rejected += 1;
                return None;
            }
        };
        out.submitted += 1;
        let stamp = Arc::new(Stamp(OnceLock::new()));
        let waker = Waker::from(Arc::clone(&stamp));
        let ready = match Pin::new(&mut ticket).poll(&mut Context::from_waker(&waker)) {
            Poll::Ready(resp) => {
                let _ = stamp.0.set(Instant::now());
                Some(resp)
            }
            Poll::Pending => None,
        };
        let ticket = if ready.is_some() { None } else { Some(ticket) };
        Some(InFlight { arrival: a, due, stamp, ticket, ready, span })
    }

    fn finish(&self, f: InFlight, n: usize, out: &mut LoadOutcome, rec: Option<&mut Recorder>) {
        let (a, due, done, resp, span) = f.settle();
        out.latency_ms.push((done - due).as_secs_f64() * 1e3);
        if let Some(rec) = rec {
            rec.close(span, done);
        }
        let y = match resp {
            Ok(y) => y,
            Err(e) => {
                eprintln!("perfbench: served request failed: {e}");
                out.errored += 1;
                return;
            }
        };
        let (_, out_len) = self.solo.shape().io_lens(a.dir);
        if y.len() != out_len || !y.iter().all(|v| v.is_finite()) {
            out.bad_output += 1;
            return;
        }
        // Solo comparisons run after the load has drained (see
        // `verify_sampled`), so they never compete with served requests.
        if n.is_multiple_of(COMPARE_EVERY) {
            out.sampled.push((a, y));
        }
    }

    /// The coalescing contract: every sampled served response must be
    /// bit-equal to a solo `apply_into` of the same vector.
    fn verify_sampled(&self, out: &mut LoadOutcome) {
        for (a, y) in std::mem::take(&mut out.sampled) {
            out.compared += 1;
            let mut solo = vec![0.0; y.len()];
            let same =
                self.solo.apply_into(a.dir, self.inputs.get(a.dir, a.input), &mut solo).is_ok()
                    && solo.iter().zip(&y).all(|(s, v)| s.to_bits() == v.to_bits());
            if !same {
                eprintln!("perfbench: served response differs from a solo apply_into");
                out.mismatched += 1;
            }
        }
    }

    /// Open loop: submit each arrival at its due time regardless of
    /// completions; latency runs from due time to ticket completion.
    pub fn open_loop(&self, arrivals: &[Arrival], mut rec: Option<&mut Recorder>) -> LoadOutcome {
        let mut out = LoadOutcome::default();
        let mut inflight = Vec::with_capacity(arrivals.len());
        let start = Instant::now();
        for &a in arrivals {
            let due = start + Duration::from_secs_f64(a.due_s);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            out.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
            inflight.extend(self.submit(a, due, &mut out, rec.as_deref_mut()));
        }
        for (n, f) in inflight.into_iter().enumerate() {
            self.finish(f, n, &mut out, rec.as_deref_mut());
        }
        self.verify_sampled(&mut out);
        out
    }

    /// Closed loop: keep `outstanding` requests in flight, submitting a
    /// new one as soon as the oldest settles, for `dur`; reports
    /// completed requests per second.
    pub fn closed_loop(
        &self,
        arrivals: &[Arrival],
        outstanding: usize,
        dur: Duration,
    ) -> LoadOutcome {
        let mut out = LoadOutcome::default();
        let mut queue = VecDeque::with_capacity(outstanding);
        let mut next = arrivals.iter().cycle();
        let mut top_up = |queue: &mut VecDeque<InFlight>, out: &mut LoadOutcome| {
            while queue.len() < outstanding {
                let a = *next.next().expect("cycled schedule is endless");
                match self.submit(a, Instant::now(), out, None) {
                    Some(f) => queue.push_back(f),
                    None => break,
                }
            }
        };
        let start = Instant::now();
        let mut done = 0usize;
        let mut last = start;
        top_up(&mut queue, &mut out);
        while let Some(f) = queue.pop_front() {
            self.finish(f, done, &mut out, None);
            done += 1;
            last = Instant::now();
            if last - start >= dur {
                break;
            }
            top_up(&mut queue, &mut out);
        }
        out.rps = done as f64 / (last - start).as_secs_f64();
        for f in queue {
            self.finish(f, done, &mut out, None);
            done += 1;
        }
        self.verify_sampled(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_schedule() {
        assert_eq!(schedule(42, 500.0, 300, 8), schedule(42, 500.0, 300, 8));
    }

    #[test]
    fn a_different_seed_gives_a_different_schedule() {
        let a = schedule(42, 500.0, 300, 8);
        let b = schedule(43, 500.0, 300, 8);
        assert_ne!(a, b);
        assert!(a.iter().zip(&b).filter(|(x, y)| x.due_s == y.due_s).count() < 3);
    }

    #[test]
    fn the_schedule_has_the_offered_rate_and_a_three_to_one_mix() {
        let n = 20_000;
        let s = schedule(7, 400.0, n, 8);
        assert!(s.windows(2).all(|w| w[1].due_s > w[0].due_s));
        let rate = n as f64 / s.last().expect("non-empty").due_s;
        assert!((rate / 400.0 - 1.0).abs() < 0.03, "rate {rate}");
        let adjoint = s.iter().filter(|a| a.dir == OpDirection::Adjoint).count() as f64;
        assert!((adjoint / n as f64 - 0.25).abs() < 0.02);
        assert!(s.iter().all(|a| a.input < 8));
    }
}
