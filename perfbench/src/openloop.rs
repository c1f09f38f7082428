//! Open-loop load: the lines due in each tick are sent on a fixed
//! schedule that does not slow when the intake slows, and the intake's
//! processed counter shows when each tick has its verdicts.

use crate::geometry::TICK_US;
use std::ops::Range;
use std::time::{Duration, Instant};

/// How often the processed counter is read between sends. Each read
/// wakes the sending thread; reading more often takes CPU from the
/// intake on a small host.
const POLL: Duration = Duration::from_micros(200);

/// Something the generator can send lines into.
pub trait Feed {
    /// Send the lines with these indices, in order.
    fn send(&mut self, lines: Range<usize>);
    /// No more lines: close the stream so the last partial batch flushes.
    fn finish(&mut self);
}

/// Cumulative line counts: tick `i` (due `i` ticks after the start)
/// brings the total sent to `cum[i]`.
pub fn schedule(lines: usize, rate_per_s: f64) -> Vec<usize> {
    let per_tick = rate_per_s * TICK_US as f64 / 1e6;
    assert!(per_tick > 0.0, "offered load must be positive");
    let ticks = (lines as f64 / per_tick).ceil() as usize;
    (1..=ticks)
        .map(|i| ((i as f64 * per_tick).round() as usize).min(lines))
        .collect()
}

/// Mark every tick whose lines are all covered by `covered` (lines
/// verdicted or rejected so far) as done at `now_us`. Ticks complete in
/// order, so `next` is the first tick still waiting.
pub fn complete_ticks(
    cum: &[usize],
    covered: u64,
    now_us: u64,
    next: &mut usize,
    done_us: &mut [u64],
) {
    while *next < cum.len() && covered >= cum[*next] as u64 {
        done_us[*next] = now_us;
        *next += 1;
    }
}

/// Verdict latency of each tick, from when it was **due** (not when it
/// was sent), so a stall delays every tick queued behind it.
pub fn latencies_us(done_us: &[u64]) -> Vec<f64> {
    done_us
        .iter()
        .enumerate()
        .map(|(i, &d)| d.saturating_sub(i as u64 * TICK_US) as f64)
        .collect()
}

/// One open-loop pass.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Per completed tick, µs from due to verdicted.
    pub latency_us: Vec<f64>,
    /// Per tick, µs the generator started sending after the tick was due.
    pub late_us: Vec<f64>,
    /// Ticks scheduled.
    pub ticks: usize,
    /// Ticks whose lines never all got a verdict.
    pub unfinished: usize,
}

/// Run one pass on the calling thread: send each tick's lines when it
/// falls due, and between sends poll `covered()` to see which ticks have
/// their verdicts, until every tick is verdicted or nothing moves for
/// `stall` after the last send. One thread does both, so the benchmark
/// adds a single runnable thread to the host it measures.
pub fn run(
    lines: usize,
    rate_per_s: f64,
    mut feed: impl Feed,
    covered: impl Fn() -> u64,
    stall: Duration,
) -> OpenLoop {
    let cum = schedule(lines, rate_per_s);
    let mut done_us = vec![0u64; cum.len()];
    let mut late_us = vec![0.0f64; cum.len()];
    let (mut sent, mut next) = (0usize, 0usize);
    let t0 = Instant::now();
    let due = |i: usize| t0 + Duration::from_micros(i as u64 * TICK_US);
    let mut last = (0u64, t0);
    // A tick found complete was verdicted after the previous read and by
    // this one; its completion time is taken as the midpoint.
    let mut prev_read_us = 0u64;
    while next < cum.len() {
        let mut now = Instant::now();
        while sent < cum.len() && now >= due(sent) {
            late_us[sent] = (now - due(sent)).as_micros() as f64;
            let from = if sent == 0 { 0 } else { cum[sent - 1] };
            feed.send(from..cum[sent]);
            sent += 1;
            if sent == cum.len() {
                feed.finish();
            }
            now = Instant::now();
        }
        let c = covered();
        let now_us = (now - t0).as_micros() as u64;
        let midpoint = (prev_read_us + now_us) / 2;
        complete_ticks(&cum, c, midpoint, &mut next, &mut done_us);
        prev_read_us = now_us;
        if c != last.0 {
            last = (c, now);
        } else if sent == cum.len() && now - last.1 > stall {
            break;
        }
        let wake = if sent < cum.len() {
            due(sent).min(now + POLL)
        } else {
            now + POLL
        };
        std::thread::sleep(wake.saturating_duration_since(now));
    }
    OpenLoop {
        latency_us: latencies_us(&done_us[..next]),
        late_us,
        ticks: cum.len(),
        unfinished: cum.len() - next,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_spreads_lines_over_ticks() {
        // 2,500 lines at 1M ev/s: 1,000 per 1 ms tick.
        assert_eq!(schedule(2_500, 1e6), vec![1_000, 2_000, 2_500]);
        // 0.4 lines per tick: some ticks send nothing new.
        assert_eq!(schedule(2, 400.0), vec![0, 1, 1, 2, 2]);
    }

    #[test]
    fn tick_completion_follows_the_processed_counter() {
        let cum = [100, 200, 300];
        let mut done = [0u64; 3];
        let mut next = 0;
        complete_ticks(&cum, 99, 10, &mut next, &mut done);
        assert_eq!(next, 0, "one line of tick 0 still waits");
        complete_ticks(&cum, 250, 1_500, &mut next, &mut done);
        assert_eq!(next, 2, "250 covered completes ticks 0 and 1, not 2");
        complete_ticks(&cum, 299, 2_000, &mut next, &mut done);
        assert_eq!(next, 2);
        complete_ticks(&cum, 300, 2_600, &mut next, &mut done);
        assert_eq!(next, 3);
        assert_eq!(done, [1_500, 1_500, 2_600]);
    }

    #[test]
    fn latency_runs_from_due_time_so_a_stall_delays_later_ticks() {
        // Each tick verdicts 300 µs after it is due, except that the
        // intake stalls from 1.1 ms to 4.3 ms: ticks 1..=4 all complete
        // when the stall ends, and each carries the stall from its own
        // due time — not from when the generator got round to it.
        let done = [300, 4_300, 4_300, 4_300, 4_300, 5_300];
        assert_eq!(
            latencies_us(&done),
            vec![300.0, 3_300.0, 2_300.0, 1_300.0, 300.0, 300.0]
        );
    }
}
