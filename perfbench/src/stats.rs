//! Percentile, schedule and visibility-lag arithmetic shared by every phase.
//!
//! Times are plain `f64` offsets (seconds from a phase start, or latencies
//! in whatever unit the caller picked) so the math can be tested on
//! synthetic schedules without a clock.

/// Sort ascending; `INFINITY` (a failed request) sorts last.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending slice, `p` in `[0, 1]`. `NaN`
/// when empty, so a missing measurement can never pass as a fast one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (mean of the middle two on an even count).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// When request `i` of connection `conn` is due in an open loop of `rate`
/// requests per second spread over `conns` connections: connection `c`
/// owns every `conns`-th slot of the global schedule.
pub fn due_at(rate: f64, conns: usize, conn: usize, i: usize) -> f64 {
    (i * conns + conn) as f64 / rate
}

/// One open-loop request: when it was due, sent, and answered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub due: f64,
    pub sent: f64,
    /// `INFINITY` when the request failed: a failure misses every limit.
    pub done: f64,
}

impl Sample {
    /// Latency counted from the due time, so a stall also charges the
    /// requests that queued behind it (no coordinated omission).
    pub fn latency(&self) -> f64 {
        self.done - self.due
    }

    /// How late the generator sent the request against its schedule.
    pub fn lateness(&self) -> f64 {
        (self.sent - self.due).max(0.0)
    }
}

/// Visibility lag of each acked insert: from its ack until a served read
/// first returned it, or until `censor_at` (end of writes plus a fixed
/// settle window) when no read ever did. Censoring keeps a mode that never
/// publishes at the worst value instead of dropping it as missing data.
pub fn visibility_lags(acks: &[f64], seen: &[Option<f64>], censor_at: f64) -> Vec<f64> {
    acks.iter()
        .zip(seen)
        .map(|(&ack, s)| s.unwrap_or(censor_at).min(censor_at) - ack)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replays one connection's schedule against fixed service times, the
    /// way the open loop does: send at the due time or as soon as the
    /// previous reply is back, whichever is later.
    fn simulate(dues: &[f64], service: &[f64]) -> Vec<Sample> {
        let mut free = 0.0f64;
        dues.iter()
            .zip(service)
            .map(|(&due, &s)| {
                let sent = due.max(free);
                free = sent + s;
                Sample {
                    due,
                    sent,
                    done: free,
                }
            })
            .collect()
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert!(percentile(&[], 0.5).is_nan());
        let with_failure = sorted(vec![3.0, f64::INFINITY, 1.0, 2.0]);
        assert_eq!(percentile(&with_failure, 1.0), f64::INFINITY);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn schedule_interleaves_connections() {
        // 1000 q/s over 2 connections: conn 0 owns even slots, conn 1 odd.
        assert_eq!(due_at(1000.0, 2, 0, 0), 0.0);
        assert_eq!(due_at(1000.0, 2, 1, 0), 0.001);
        assert_eq!(due_at(1000.0, 2, 0, 1), 0.002);
        assert_eq!(due_at(1000.0, 2, 1, 3), 0.007);
    }

    #[test]
    fn due_time_latency_charges_a_stall_to_every_request_behind_it() {
        // One request per ms, each served in 0.1 ms, except the third
        // stalls for 5 ms: the next five requests were due during the
        // stall and must carry the wait they were forced into.
        let dues: Vec<f64> = (0..10).map(|i| due_at(1000.0, 1, 0, i)).collect();
        let mut service = vec![0.0001; 10];
        service[2] = 0.005;
        let s = simulate(&dues, &service);
        let lat_ms: Vec<f64> = s.iter().map(|x| x.latency() * 1e3).collect();
        assert!((lat_ms[0] - 0.1).abs() < 1e-9);
        assert!((lat_ms[2] - 5.0).abs() < 1e-9);
        // Due at 3 ms, sent at 7 ms (stall end), done at 7.1 ms.
        assert!((lat_ms[3] - 4.1).abs() < 1e-9);
        assert!((s[3].lateness() * 1e3 - 4.0).abs() < 1e-9);
        // Timed from the send instead, it would read 0.1 ms: the hidden wait.
        assert!(((s[3].done - s[3].sent) * 1e3 - 0.1).abs() < 1e-9);
        // Due at 7 ms, sent at 7.4 ms: still paying for the stall.
        assert!((lat_ms[7] - 0.5).abs() < 1e-9);
        assert!((lat_ms[8] - 0.1).abs() < 1e-9, "backlog drained by slot 8");
        let p = sorted(lat_ms);
        assert!((percentile(&p, 0.9) - 4.1).abs() < 1e-9);
    }

    #[test]
    fn failed_requests_miss_every_limit() {
        let ok = Sample {
            due: 0.0,
            sent: 0.0,
            done: 0.001,
        };
        let failed = Sample {
            done: f64::INFINITY,
            ..ok
        };
        let lat = sorted(vec![failed.latency(), ok.latency(), ok.latency()]);
        assert_eq!(percentile(&lat, 0.99), f64::INFINITY);
        assert_eq!(percentile(&lat, 0.5), 0.001);
    }

    #[test]
    fn unseen_writes_are_censored_at_the_worst_value() {
        let acks = [1.0, 2.0, 3.0];
        let seen = [Some(1.5), None, Some(9.0)];
        let lags = visibility_lags(&acks, &seen, 5.0);
        // Seen → its own lag; never seen → censor minus ack; a read that
        // only arrives after the settle window is clipped to the censor.
        assert_eq!(lags, vec![0.5, 3.0, 2.0]);
        // A mode that publishes nothing reads as the worst case, not as
        // an empty (and so unbeatable) sample.
        let none = visibility_lags(&acks, &[None, None, None], 5.0);
        assert_eq!(percentile(&sorted(none), 0.99), 4.0);
    }
}
