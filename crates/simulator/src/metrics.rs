/// Per-device outcome of a simulation run (the Table I columns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceStat {
    /// Device id.
    pub device: usize,
    /// Seconds the device spent computing.
    pub busy: f64,
    /// `busy / elapsed` — the paper's "Utili" rows.
    pub utilization: f64,
    /// Fraction of the device's FLOPs that duplicate other devices'
    /// work — the paper's "Redu" rows.
    pub redundancy: f64,
}

/// Outcome of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Tasks completed.
    pub completed: usize,
    /// Simulated seconds from time 0 to the last completion.
    pub elapsed: f64,
    /// Mean inference latency (waiting + processing), seconds.
    pub avg_latency: f64,
    /// Median inference latency.
    pub p50_latency: f64,
    /// 95th-percentile inference latency.
    pub p95_latency: f64,
    /// Worst inference latency.
    pub max_latency: f64,
    /// Completed tasks per second.
    pub throughput: f64,
    /// Per-device utilization/redundancy, ascending device id.
    pub device_stats: Vec<DeviceStat>,
}

impl SimReport {
    /// Builds a report from raw per-task latencies and per-device busy
    /// seconds. `busy` pairs are `(device_id, busy_seconds,
    /// redundancy_ratio)`.
    pub(crate) fn from_raw(latencies: &[f64], elapsed: f64, busy: &[(usize, f64, f64)]) -> Self {
        let mut sorted = latencies.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let completed = sorted.len();
        let avg = if completed > 0 {
            sorted.iter().sum::<f64>() / completed as f64
        } else {
            0.0
        };
        let pick = |q: f64| -> f64 {
            if sorted.is_empty() {
                0.0
            } else {
                let i = ((completed as f64 - 1.0) * q).round() as usize;
                sorted[i]
            }
        };
        let mut device_stats: Vec<DeviceStat> = busy
            .iter()
            .map(|(id, b, r)| DeviceStat {
                device: *id,
                busy: *b,
                utilization: if elapsed > 0.0 {
                    (b / elapsed).min(1.0)
                } else {
                    0.0
                },
                redundancy: *r,
            })
            .collect();
        device_stats.sort_by_key(|d| d.device);
        SimReport {
            completed,
            elapsed,
            avg_latency: avg,
            p50_latency: pick(0.5),
            p95_latency: pick(0.95),
            max_latency: sorted.last().copied().unwrap_or(0.0),
            throughput: if elapsed > 0.0 {
                completed as f64 / elapsed
            } else {
                0.0
            },
            device_stats,
        }
    }

    /// Mean utilization over the devices that did any work.
    pub fn avg_utilization(&self) -> f64 {
        let active: Vec<&DeviceStat> = self.device_stats.iter().filter(|d| d.busy > 0.0).collect();
        if active.is_empty() {
            0.0
        } else {
            active.iter().map(|d| d.utilization).sum::<f64>() / active.len() as f64
        }
    }

    /// Cluster-wide redundancy: plain mean of per-device ratios over
    /// the devices that did any work (Table I's "Average" column is the
    /// arithmetic mean of the per-device values).
    pub fn avg_redundancy(&self) -> f64 {
        let active: Vec<&DeviceStat> = self.device_stats.iter().filter(|d| d.busy > 0.0).collect();
        if active.is_empty() {
            0.0
        } else {
            active.iter().map(|d| d.redundancy).sum::<f64>() / active.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_from_sorted_latencies() {
        let lats = vec![4.0, 1.0, 2.0, 3.0, 5.0];
        let r = SimReport::from_raw(&lats, 10.0, &[]);
        assert_eq!(r.completed, 5);
        assert_eq!(r.avg_latency, 3.0);
        assert_eq!(r.p50_latency, 3.0);
        assert_eq!(r.max_latency, 5.0);
        assert_eq!(r.throughput, 0.5);
    }

    #[test]
    fn empty_run_is_zeroed() {
        let r = SimReport::from_raw(&[], 0.0, &[]);
        assert_eq!(r.completed, 0);
        assert_eq!(r.avg_latency, 0.0);
        assert_eq!(r.throughput, 0.0);
    }

    #[test]
    fn device_stats_sorted_and_clamped() {
        let r = SimReport::from_raw(&[1.0], 2.0, &[(3, 1.0, 0.1), (1, 4.0, 0.0)]);
        assert_eq!(r.device_stats[0].device, 1);
        assert_eq!(r.device_stats[0].utilization, 1.0); // clamped
        assert_eq!(r.device_stats[1].utilization, 0.5);
    }

    #[test]
    fn avg_utilization_ignores_idle_devices() {
        let r = SimReport::from_raw(&[1.0], 10.0, &[(0, 5.0, 0.0), (1, 0.0, 0.0)]);
        assert_eq!(r.avg_utilization(), 0.5);
    }

    #[test]
    fn avg_redundancy_is_mean_over_active() {
        let r = SimReport::from_raw(&[1.0], 10.0, &[(0, 9.0, 0.1), (1, 1.0, 0.5), (2, 0.0, 0.9)]);
        assert!((r.avg_redundancy() - (0.1 + 0.5) / 2.0).abs() < 1e-12);
    }
}
