//! Load generation and the measurement bracket around a timed window.
//!
//! The generators are written to measure the program, not themselves:
//! a closed loop keeps an exact number of requests outstanding and
//! never drains mid-window; the open loop offers a schedule fixed by
//! the seed, never blocks on a ticket (a collector thread waits them
//! in FIFO order) and times every request from the instant it was
//! *due*, so a stall is charged to every request it delays.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use pico_serve::{ServeError, ServeHandle, ServeTicket};
use pico_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::alloc;
use crate::host;
use crate::spans::{SpanId, Tracer, NO_SPAN};
use crate::stats::Fnv;

/// One in this many timed outputs is compared with its reference
/// (every warm-up output is).
pub const VERIFY_EVERY: u32 = 16;

/// One completed, correct operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Completion time, seconds from window start.
    pub done_s: f32,
    /// Latency, milliseconds.
    pub latency_ms: f32,
}

/// Everything a timed window observed.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Completed, correct operations inside the window.
    pub samples: Vec<Sample>,
    /// Operations attempted (completed + failed).
    pub attempted: u64,
    /// Operations rejected, errored or wrong.
    pub failed: u64,
    /// The window's length, seconds (throughput's denominator).
    pub secs: f64,
    /// Process CPU seconds (all threads) spent inside the window.
    pub cpu_secs: f64,
    /// Peak live heap bytes of each of the window's rounds.
    pub round_peaks: Vec<usize>,
    /// Open loop only: how late each submit ran, milliseconds.
    pub sched_lag_ms: Vec<f64>,
    /// Plan-cache lookups served from the cache (churn only).
    pub cache_hits: u64,
    /// Plan-cache lookups made (churn only).
    pub cache_lookups: u64,
    /// Plan switches the audit would only allow cold (churn only).
    pub switch_refusals: u64,
}

/// Rounds a run's timed windows are cut into, all told.
/// `throughput_rps` of a closed loop is the median round's rate and
/// `heap_peak_mb` the median round's peak, neither of which one
/// transient stall or burst can drag.
pub const ROUNDS: usize = 15;

/// Brackets a timed window: wall clock, process CPU time, heap peak.
pub struct Meter {
    start: Instant,
    cpu0: f64,
    round: Duration,
    next_round: Instant,
    round_peaks: Vec<usize>,
}

impl Meter {
    /// Starts, now, a window planned to last `secs` and cut into `rounds`.
    ///
    /// # Errors
    ///
    /// Errs when process CPU time cannot be read.
    pub fn start(secs: f64, rounds: usize) -> Result<Meter, String> {
        let round = Duration::from_secs_f64(secs / rounds as f64);
        let round_peaks = Vec::with_capacity(rounds + 1);
        alloc::reset_peak();
        let cpu0 = host::process_cpu_secs()?;
        let start = Instant::now();
        Ok(Meter {
            start,
            cpu0,
            round,
            next_round: start + round,
            round_peaks,
        })
    }

    /// The window's first instant.
    pub fn t0(&self) -> Instant {
        self.start
    }

    /// Tells the meter the time (the load loops call this once per
    /// operation): at each round boundary the round's heap peak is
    /// taken and peak tracking restarts.
    pub fn tick(&mut self, now: Instant) {
        if now >= self.next_round {
            self.round_peaks.push(alloc::snapshot().peak);
            alloc::reset_peak();
            self.next_round += self.round;
        }
    }

    /// Closes the window at `end`, filling the bracket's three readings.
    ///
    /// # Errors
    ///
    /// Errs when process CPU time cannot be read.
    pub fn stop(mut self, end: Instant, window: &mut Window) -> Result<(), String> {
        window.cpu_secs = host::process_cpu_secs()? - self.cpu0;
        // A window ends a little past (or short of) its last boundary;
        // less than half a round is not a round of its own.
        let peak = alloc::snapshot().peak;
        let boundary = self.next_round - self.round;
        match self.round_peaks.last_mut() {
            Some(last) if end.saturating_duration_since(boundary) < self.round / 2 => {
                *last = (*last).max(peak);
            }
            _ => self.round_peaks.push(peak),
        }
        window.round_peaks = self.round_peaks;
        window.secs = end.duration_since(self.start).as_secs_f64();
        Ok(())
    }
}

/// Seeded inputs and the single-device outputs they must produce.
pub struct Pool {
    /// Generated inputs.
    pub inputs: Vec<Tensor>,
    /// `Engine::infer` of each input on the workload's backend.
    pub refs: Vec<Tensor>,
}

impl Pool {
    /// Whether `out` equals input `idx`'s reference bit for bit.
    pub fn matches(&self, idx: usize, out: &Tensor) -> bool {
        let want = &self.refs[idx];
        want.shape() == out.shape()
            && want
                .data()
                .iter()
                .zip(out.data())
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// When a closed loop stops offering new requests.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many requests in total (warm-up).
    Ops(usize),
    /// At this instant (the timed window).
    At(Instant),
}

struct Pending {
    ticket: ServeTicket,
    submitted: Instant,
    tenant: usize,
    input: usize,
    request: u32,
    span: SpanId,
}

/// Closed loop over a live server: exactly `outstanding` requests in
/// flight, spread evenly over `tenants`; each completion is replaced
/// by a new request of the same tenant. One thread submits and harvests
/// (tickets are waited oldest first, which is the order the server's
/// round-robin batcher serves them in).
pub struct ClosedLoop<'a> {
    handle: &'a ServeHandle,
    pool: &'a Pool,
    rng: StdRng,
    tenants: usize,
    outstanding: usize,
    pending: VecDeque<Pending>,
    next_request: u32,
    submitted: usize,
}

impl<'a> ClosedLoop<'a> {
    /// A loop drawing inputs from `pool` in an order fixed by `seed`.
    pub fn new(
        handle: &'a ServeHandle,
        pool: &'a Pool,
        seed: u64,
        tenants: usize,
        outstanding: usize,
    ) -> Self {
        ClosedLoop {
            handle,
            pool,
            rng: StdRng::seed_from_u64(seed),
            tenants,
            outstanding,
            pending: VecDeque::with_capacity(outstanding),
            next_request: 0,
            submitted: 0,
        }
    }

    fn submit(&mut self, tenant: usize, tracer: &mut Tracer, window: &mut Window) {
        let input = self.rng.gen_range(0..self.pool.inputs.len());
        let tensor = self.pool.inputs[input].clone();
        let request = self.next_request;
        self.next_request += 1;
        self.submitted += 1;
        let span = tracer.begin("op", "bench", NO_SPAN, request);
        let submitted = Instant::now();
        let call = tracer.begin("serve.submit", "serve", span, request);
        let result = self.handle.submit(tenant, tensor);
        tracer.end(call);
        match result {
            Ok(ticket) => self.pending.push_back(Pending {
                ticket,
                submitted,
                tenant,
                input,
                request,
                span,
            }),
            Err(_) => {
                // A rejection is a failed operation and misses any latency.
                tracer.end(span);
                window.attempted += 1;
                window.failed += 1;
            }
        }
    }

    /// Runs until `stop`, recording into `window` every operation that
    /// completes before it (times relative to `t0`) and telling `meter`
    /// the time at each. With `verify_all` every output is checked,
    /// otherwise one in [`VERIFY_EVERY`].
    /// Requests still in flight at the stop are left for
    /// [`drain`](Self::drain) and are not part of the window.
    ///
    /// # Errors
    ///
    /// Errs when the server closes under the loop.
    pub fn run(
        &mut self,
        stop: Stop,
        t0: Instant,
        verify_all: bool,
        tracer: &mut Tracer,
        window: &mut Window,
        mut meter: Option<&mut Meter>,
    ) -> Result<Instant, String> {
        let offering = |this: &Self| match stop {
            Stop::Ops(n) => this.submitted < n,
            Stop::At(t) => Instant::now() < t,
        };
        self.submitted = 0;
        for i in 0..self.outstanding {
            if offering(self) {
                self.submit(i % self.tenants, tracer, window);
            }
        }
        while let Some(p) = self.pending.pop_front() {
            let wait = tracer.begin("serve.wait", "serve", p.span, p.request);
            let result = p.ticket.wait();
            let done = Instant::now();
            tracer.end(wait);
            tracer.end(p.span);
            if let Some(meter) = meter.as_deref_mut() {
                meter.tick(done);
            }
            if let Stop::At(t) = stop {
                if done >= t {
                    // Completed past the window: not part of it. The
                    // rest of the queue is left for `drain`.
                    if matches!(result, Err(ServeError::Closed)) {
                        return Err("server closed under load".to_owned());
                    }
                    return Ok(t);
                }
            }
            window.attempted += 1;
            match result {
                Ok(out) => {
                    let check = verify_all || p.request.is_multiple_of(VERIFY_EVERY);
                    if check && !self.pool.matches(p.input, &out) {
                        window.failed += 1;
                    } else {
                        window.samples.push(Sample {
                            done_s: done.duration_since(t0).as_secs_f32(),
                            latency_ms: done.duration_since(p.submitted).as_secs_f32() * 1e3,
                        });
                    }
                }
                Err(ServeError::Closed) => return Err("server closed under load".to_owned()),
                Err(_) => window.failed += 1,
            }
            if offering(self) {
                self.submit(p.tenant, tracer, window);
            }
        }
        Ok(Instant::now())
    }

    /// Waits out every request still in flight (outside any window).
    pub fn drain(&mut self) {
        while let Some(p) = self.pending.pop_front() {
            let _ = p.ticket.wait();
        }
    }
}

/// One scheduled arrival of the open loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Due time, seconds from window start.
    pub due_s: f64,
    /// Tenant the request belongs to.
    pub tenant: usize,
    /// Index into the input pool.
    pub input: usize,
}

/// The open loop's arrival schedule: a Poisson process of `rate`
/// requests per second over `seconds`, conditioned on its count — the
/// expected `rate × seconds` arrivals fall uniformly in the window, so
/// every seed offers the same amount of work with different spacing.
/// Tenants are drawn by `weights`. Returns the schedule and its hash.
pub fn open_schedule(
    seed: u64,
    rate: f64,
    seconds: f64,
    weights: &[u32],
    inputs: usize,
) -> (Vec<Arrival>, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let count = (rate * seconds).round().max(1.0) as usize;
    let mut dues: Vec<f64> = (0..count).map(|_| rng.gen_range(0.0..seconds)).collect();
    dues.sort_by(f64::total_cmp);
    let total: u32 = weights.iter().sum();
    let mut hash = Fnv::default();
    let schedule = dues
        .into_iter()
        .map(|due_s| {
            let mut draw = rng.gen_range(0..total);
            let mut tenant = 0;
            while draw >= weights[tenant] {
                draw -= weights[tenant];
                tenant += 1;
            }
            let input = rng.gen_range(0..inputs);
            hash.write(due_s.to_bits());
            hash.write(tenant as u64);
            hash.write(input as u64);
            Arrival {
                due_s,
                tenant,
                input,
            }
        })
        .collect();
    (schedule, hash.finish())
}

struct InFlight {
    ticket: ServeTicket,
    due: Instant,
    input: usize,
    request: u32,
}

/// Offers `schedule` to a live server from `meter`'s start on (telling
/// it the time at each arrival) and returns when the
/// last request has completed. The calling thread only sleeps and
/// submits; a collector thread waits the tickets in submission order.
/// Returns the instant of the last completion.
///
/// # Errors
///
/// Errs when the server closes under the loop or the collector dies.
pub fn open_loop(
    handle: &ServeHandle,
    pool: &Pool,
    schedule: &[Arrival],
    meter: &mut Meter,
    verify_all: bool,
    tracer: &mut Tracer,
    window: &mut Window,
) -> Result<Instant, String> {
    let t0 = meter.t0();
    let traced = tracer.is_enabled();
    std::thread::scope(|scope| {
        // Harness-side hand-off, sized so `send` never blocks the generator.
        let expected = schedule.len().max(1);
        let (tx, rx) = mpsc::sync_channel::<InFlight>(expected);
        let collector = scope.spawn(move || {
            let mut tracer = if traced {
                Tracer::enabled(t0)
            } else {
                Tracer::disabled()
            };
            let mut samples = Vec::with_capacity(expected);
            let mut failed = 0u64;
            let mut closed = false;
            let mut last = t0;
            for f in rx {
                let result = f.ticket.wait();
                let done = Instant::now();
                last = done;
                tracer.record("op", "bench", f.due, done, f.request);
                match result {
                    Ok(out) => {
                        let check = verify_all || f.request.is_multiple_of(VERIFY_EVERY);
                        if check && !pool.matches(f.input, &out) {
                            failed += 1;
                        } else {
                            samples.push(Sample {
                                done_s: done.duration_since(t0).as_secs_f32(),
                                latency_ms: done.saturating_duration_since(f.due).as_secs_f32()
                                    * 1e3,
                            });
                        }
                    }
                    Err(ServeError::Closed) => {
                        closed = true;
                        failed += 1;
                    }
                    Err(_) => failed += 1,
                }
            }
            (samples, failed, closed, last, tracer.into_spans())
        });

        for (i, a) in schedule.iter().enumerate() {
            let request = i as u32;
            let tensor = pool.inputs[a.input].clone();
            let due = t0 + Duration::from_secs_f64(a.due_s);
            if let Some(ahead) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(ahead);
            }
            let now = Instant::now();
            meter.tick(now);
            window
                .sched_lag_ms
                .push(now.saturating_duration_since(due).as_secs_f64() * 1e3);
            let call = tracer.begin("serve.submit", "serve", NO_SPAN, request);
            let result = handle.submit(a.tenant, tensor);
            tracer.end(call);
            window.attempted += 1;
            match result {
                Ok(ticket) => {
                    let sent = tx.send(InFlight {
                        ticket,
                        due,
                        input: a.input,
                        request,
                    });
                    if sent.is_err() {
                        return Err("collector thread stopped early".to_owned());
                    }
                }
                Err(ServeError::Closed) => return Err("server closed under load".to_owned()),
                Err(_) => window.failed += 1,
            }
        }
        drop(tx);
        let (samples, failed, closed, last, spans) = collector
            .join()
            .map_err(|_| "collector thread panicked".to_owned())?;
        if closed {
            return Err("server closed under load".to_owned());
        }
        window.samples.extend(samples);
        window.failed += failed;
        for s in spans {
            tracer.adopt(s);
        }
        Ok(last)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_fixed_by_the_seed_and_sized_by_the_rate() {
        let (a, ha) = open_schedule(5, 25.0, 10.0, &[2, 1], 8);
        let (b, hb) = open_schedule(5, 25.0, 10.0, &[2, 1], 8);
        let (c, hc) = open_schedule(6, 25.0, 10.0, &[2, 1], 8);
        assert_eq!(a, b);
        assert_eq!(ha, hb);
        assert_ne!(ha, hc);
        assert_ne!(a, c);
        // Same offered work for every seed; only the spacing differs.
        assert_eq!(a.len(), 250);
        assert_eq!(c.len(), 250);
        assert!(a.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        assert!(a.iter().all(|x| (0.0..10.0).contains(&x.due_s)));
        assert!(a.iter().all(|x| x.tenant < 2 && x.input < 8));
        // 2:1 tenant mix, loosely.
        let t0 = a.iter().filter(|x| x.tenant == 0).count();
        assert!((130..=200).contains(&t0), "tenant 0 got {t0} of 250");
    }
}
