//! Per-line and aggregate matching statistics.
//!
//! Table 2 of the paper reports, per SemRE and per algorithm: reciprocal
//! throughput over all lines and over matched lines only (ms·line⁻¹),
//! oracle calls per line, the fraction of running time spent inside the
//! oracle, and the average number of characters submitted to the oracle per
//! line.  Fig. 10 additionally plots the median running time as a function
//! of line length.  [`ScanReport`] collects the per-line raw measurements
//! ([`LineRecord`]) and derives all of those aggregates.

use std::time::Duration;

use semre_oracle::{BatchStats, OracleError, OracleStats, ScanInterrupt};

/// Raw measurements for one scanned line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LineRecord {
    /// Index of the line in the scanned corpus.
    pub index: usize,
    /// Length of the line in bytes.
    pub length: usize,
    /// Whether the line matched the SemRE.
    pub matched: bool,
    /// Whether this verdict was degraded by an oracle fault under the
    /// `no-match` policy: the backend could not answer, so the line was
    /// *reported* as a non-match rather than decided (see
    /// [`FaultPolicy`](crate::FaultPolicy)).  Always `false` for healthy
    /// lines and for policies that do not emit degraded records.
    pub degraded: bool,
    /// Wall-clock time spent matching the line.
    pub duration: Duration,
    /// Oracle usage attributable to this line.
    pub oracle: OracleStats,
}

/// The outcome of scanning (part of) a corpus with one matcher.
#[derive(Clone, Debug, Default)]
pub struct ScanReport {
    /// Per-line measurements, in scan order.
    pub records: Vec<LineRecord>,
    /// Whether the scan stopped early because the time budget was exhausted
    /// (the paper uses a 40-minute budget per run).
    pub timed_out: bool,
    /// Total wall-clock time of the scan.
    pub total_duration: Duration,
    /// Batched query-plane usage, accumulated over every chunk session of a
    /// batched [`scan_lines`](crate::scan_lines) run (all zero for per-call
    /// scans).
    pub batch: BatchStats,
    /// Absolute indices of lines whose verdicts were degraded by oracle
    /// faults (skipped under `skip-line`, reported as non-matches under
    /// `no-match`), in ascending order.  Degradation is always explicit:
    /// a fault never changes a verdict without an entry here.
    pub degraded: Vec<usize>,
    /// The oracle fault that stopped the scan under the `fail` policy
    /// (`None` when the scan completed or degraded instead).
    pub fault: Option<OracleError>,
    /// Why the scan was cut short by its
    /// [`ScanControl`](semre_oracle::ScanControl), if it was.
    pub interrupted: Option<ScanInterrupt>,
}

impl ScanReport {
    /// Number of lines actually processed.
    pub fn lines(&self) -> usize {
        self.records.len()
    }

    /// Number of processed lines that matched.
    pub fn matched_lines(&self) -> usize {
        self.records.iter().filter(|r| r.matched).count()
    }

    /// Total oracle usage across all processed lines.
    pub fn oracle_totals(&self) -> OracleStats {
        self.records
            .iter()
            .fold(OracleStats::default(), |acc, r| acc.merged(&r.oracle))
    }

    /// Fraction of batch-plane keys answered without touching the backend
    /// (duplicates within a line or across the lines of a chunk).
    pub fn batch_dedup_ratio(&self) -> f64 {
        self.batch.dedup_ratio()
    }

    /// Mean number of keys per backend round trip of the batch plane.
    pub fn mean_batch_size(&self) -> f64 {
        self.batch.mean_batch_size()
    }

    /// Reciprocal throughput over all processed lines, in milliseconds per
    /// line (Table 2, "RT, Total").
    pub fn rt_total_ms(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let total: Duration = self.records.iter().map(|r| r.duration).sum();
        total.as_secs_f64() * 1e3 / self.records.len() as f64
    }

    /// Reciprocal throughput over matched lines only, in milliseconds per
    /// line (Table 2, "RT, Matched").
    pub fn rt_matched_ms(&self) -> f64 {
        let matched: Vec<&LineRecord> = self.records.iter().filter(|r| r.matched).collect();
        if matched.is_empty() {
            return 0.0;
        }
        let total: Duration = matched.iter().map(|r| r.duration).sum();
        total.as_secs_f64() * 1e3 / matched.len() as f64
    }

    /// Average number of oracle calls per processed line (Table 2,
    /// "Oracle calls").
    pub fn oracle_calls_per_line(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.oracle_totals().calls as f64 / self.records.len() as f64
    }

    /// Fraction of the total matching time spent inside the oracle
    /// (Table 2, "Oracle fraction").
    pub fn oracle_fraction(&self) -> f64 {
        let total: Duration = self.records.iter().map(|r| r.duration).sum();
        if total.is_zero() {
            return 0.0;
        }
        let oracle = self.oracle_totals().oracle_time();
        (oracle.as_secs_f64() / total.as_secs_f64()).min(1.0)
    }

    /// Average number of characters submitted to the oracle per processed
    /// line (Table 2, "Query length").
    pub fn query_chars_per_line(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.oracle_totals().query_bytes as f64 / self.records.len() as f64
    }

    /// Median matching time, in milliseconds, for every line-length bucket
    /// of width `bucket` containing at least `min_lines` lines — the data
    /// series plotted in Fig. 10.
    ///
    /// Returns `(bucket_start, median_ms, lines_in_bucket)` triples in
    /// increasing bucket order.
    pub fn median_rt_by_length(&self, bucket: usize, min_lines: usize) -> Vec<(usize, f64, usize)> {
        assert!(bucket > 0, "bucket width must be positive");
        let mut buckets: Vec<Vec<f64>> = Vec::new();
        for r in &self.records {
            let b = r.length / bucket;
            if buckets.len() <= b {
                buckets.resize_with(b + 1, Vec::new);
            }
            buckets[b].push(r.duration.as_secs_f64() * 1e3);
        }
        buckets
            .into_iter()
            .enumerate()
            .filter(|(_, times)| times.len() >= min_lines.max(1))
            .map(|(i, mut times)| {
                times.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
                let median = times[times.len() / 2];
                (i * bucket, median, times.len())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(length: usize, matched: bool, ms: u64, calls: u64, bytes: u64) -> LineRecord {
        LineRecord {
            index: 0,
            length,
            matched,
            degraded: false,
            duration: Duration::from_millis(ms),
            oracle: OracleStats {
                calls,
                query_bytes: bytes,
                positive: 0,
                oracle_nanos: Duration::from_millis(ms / 2).as_nanos() as u64,
            },
        }
    }

    fn sample_report() -> ScanReport {
        ScanReport {
            records: vec![
                record(10, true, 4, 2, 20),
                record(20, false, 2, 1, 5),
                record(30, true, 6, 3, 35),
                record(12, false, 0, 0, 0),
            ],
            timed_out: false,
            total_duration: Duration::from_millis(12),
            batch: BatchStats {
                batches: 3,
                keys_submitted: 6,
                keys_deduped: 3,
                backend_keys: 3,
            },
            ..ScanReport::default()
        }
    }

    #[test]
    fn aggregates() {
        let report = sample_report();
        assert_eq!(report.lines(), 4);
        assert_eq!(report.matched_lines(), 2);
        assert!((report.rt_total_ms() - 3.0).abs() < 1e-9);
        assert!((report.rt_matched_ms() - 5.0).abs() < 1e-9);
        assert!((report.oracle_calls_per_line() - 1.5).abs() < 1e-9);
        assert!((report.query_chars_per_line() - 15.0).abs() < 1e-9);
        // Oracle time is half of each line's duration by construction.
        assert!((report.oracle_fraction() - 0.5).abs() < 0.01);
        assert_eq!(report.oracle_totals().calls, 6);
        assert!((report.batch_dedup_ratio() - 0.5).abs() < 1e-9);
        assert!((report.mean_batch_size() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_report_is_all_zeroes() {
        let report = ScanReport::default();
        assert_eq!(report.lines(), 0);
        assert_eq!(report.matched_lines(), 0);
        assert_eq!(report.rt_total_ms(), 0.0);
        assert_eq!(report.rt_matched_ms(), 0.0);
        assert_eq!(report.oracle_calls_per_line(), 0.0);
        assert_eq!(report.oracle_fraction(), 0.0);
        assert_eq!(report.query_chars_per_line(), 0.0);
        assert_eq!(report.batch_dedup_ratio(), 0.0);
        assert_eq!(report.mean_batch_size(), 0.0);
        assert!(report.median_rt_by_length(50, 1).is_empty());
    }

    #[test]
    fn median_by_length_buckets() {
        let mut report = ScanReport::default();
        for (len, ms) in [(5, 1), (7, 3), (9, 5), (120, 40), (130, 60)] {
            report.records.push(record(len, false, ms, 0, 0));
        }
        let series = report.median_rt_by_length(50, 2);
        // Bucket 0 has three lines (median 3 ms), bucket 100 has two
        // (median is the upper of the two, 60 ms).
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].0, 0);
        assert!((series[0].1 - 3.0).abs() < 1e-9);
        assert_eq!(series[0].2, 3);
        assert_eq!(series[1].0, 100);
        assert!((series[1].1 - 60.0).abs() < 1e-9);
        // Requiring at least four lines per bucket filters everything out.
        assert!(report.median_rt_by_length(50, 4).is_empty());
    }

    #[test]
    #[should_panic(expected = "bucket width")]
    fn zero_bucket_rejected() {
        let _ = ScanReport::default().median_rt_by_length(0, 1);
    }
}
