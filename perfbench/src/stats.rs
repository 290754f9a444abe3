//! Sample statistics and the benchmark's own seeded generator.

use std::collections::BTreeMap;

use crate::record::Metrics;

/// `p`-quantile (0..=1) of a sample by nearest rank; 0 when empty.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Samples strictly above the `p`-quantile: the evidence behind it.
pub fn beyond(samples: &[f64], p: f64) -> u64 {
    let q = quantile(samples, p);
    samples.iter().filter(|&&x| x > q).count() as u64
}

/// Geometric mean of the per-query medians (the paper's per-workload
/// aggregate): steady when query costs differ by orders of magnitude.
pub fn geomean_of_medians(per_query: &BTreeMap<String, Vec<f64>>) -> f64 {
    let logs: Vec<f64> = per_query
        .values()
        .filter(|v| !v.is_empty())
        .map(|v| median(v).max(1e-9).ln())
        .collect();
    if logs.is_empty() {
        return 0.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Windows `Samples::qps` takes its median over.
const QPS_WINDOWS: usize = 10;

/// Latencies of one measured phase, pooled and per query.
#[derive(Debug, Default)]
pub struct Samples {
    pub per_query: BTreeMap<String, Vec<f64>>,
    pub all_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// The closed loop's work units in order (a cycle of queries, an
    /// epoch, a request): reads completed and seconds taken.
    pub units: Vec<(u32, f64)>,
    /// Clients whose units were absorbed here; 0 for a single loop.
    pub clients: u32,
    /// Per query, the client's whole iteration per request: the call
    /// plus whatever the benchmark does around it (span recording).
    pub iteration_ms: BTreeMap<String, Vec<f64>>,
}

impl Samples {
    /// One completed read: its latency counts whether or not the answer
    /// was right; a wrong or failed answer also counts as failed.
    pub fn record(&mut self, query: &str, ms: f64, ok: bool) {
        self.per_query
            .entry(query.to_string())
            .or_default()
            .push(ms);
        self.all_ms.push(ms);
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn iteration(&mut self, query: &str, ms: f64) {
        self.iteration_ms
            .entry(query.to_string())
            .or_default()
            .push(ms);
    }

    pub fn unit(&mut self, reads: u32, secs: f64) {
        self.units.push((reads, secs));
    }

    /// Completed reads per second: the median over `QPS_WINDOWS`
    /// consecutive windows of units, times the clients. A burst of host
    /// interference then moves one window, not the result.
    pub fn qps(&self) -> f64 {
        let rate = |units: &[(u32, f64)]| {
            let reads: u32 = units.iter().map(|u| u.0).sum();
            ratio(f64::from(reads), units.iter().map(|u| u.1).sum())
        };
        let per = self.units.len() / QPS_WINDOWS;
        let per_client = if per == 0 {
            rate(&self.units)
        } else {
            let windows: Vec<f64> = self
                .units
                .chunks_exact(per)
                .take(QPS_WINDOWS)
                .map(rate)
                .collect();
            median(&windows)
        };
        per_client * f64::from(self.clients.max(1))
    }

    /// Adds another client's samples.
    pub fn absorb(&mut self, other: Samples) {
        for (k, v) in other.per_query {
            self.per_query.entry(k).or_default().extend(v);
        }
        self.all_ms.extend(other.all_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.units.extend(other.units);
        self.clients += other.clients.max(1);
        for (k, v) in other.iteration_ms {
            self.iteration_ms.entry(k).or_default().extend(v);
        }
    }

    /// The end-to-end metrics, in `layers::END_TO_END` order.
    pub fn end_to_end(&self, setup_s: f64, bytes_per_triple: f64) -> Metrics {
        let mut m = Metrics::default();
        m.put("setup_s", setup_s, "s");
        m.put("qps", self.qps(), "1/s");
        m.put(
            "query_geomean_ms",
            geomean_of_medians(&self.per_query),
            "ms",
        );
        m.put("latency_p99_ms", quantile(&self.all_ms, 0.99), "ms");
        m.put("bytes_per_triple", bytes_per_triple, "bytes");
        m
    }

    /// Recorded but not gated: a pooled median over queries whose costs
    /// differ by 10x lands on a cluster boundary and jumps between
    /// clusters from run to run.
    pub fn reported(&self) -> Metrics {
        let mut m = Metrics::default();
        m.put("latency_p50_ms", median(&self.all_ms), "ms");
        m
    }

    /// Sample counts for the record.
    pub fn describe(&self, out: &mut Vec<(String, u64)>) {
        out.push(("read_samples".to_string(), self.all_ms.len() as u64));
        out.push((
            "read_samples_beyond_p99".to_string(),
            beyond(&self.all_ms, 0.99),
        ));
        for (k, v) in &self.per_query {
            out.push((format!("samples.{k}"), v.len() as u64));
        }
    }
}

/// A traced run's requests, split into an untraced and a traced lane
/// that take turns cycle by cycle, so both see the same engine, process
/// and host state.
#[derive(Debug, Default)]
pub struct Lanes {
    pub plain: Samples,
    pub traced: Samples,
}

impl Lanes {
    pub fn lane(&mut self, traced: bool) -> &mut Samples {
        if traced {
            &mut self.traced
        } else {
            &mut self.plain
        }
    }

    pub fn overhead_ratio(&self) -> f64 {
        overhead_ratio(&self.plain, &self.traced)
    }

    pub fn attempted(&self) -> u64 {
        self.plain.attempted + self.traced.attempted
    }

    pub fn failed(&self) -> u64 {
        self.plain.failed + self.traced.failed
    }
}

/// Tracing overhead as a throughput ratio: the geometric mean over
/// queries of the untraced over the traced median iteration time. Per
/// query, so the two lanes' query mixes need not match.
pub fn overhead_ratio(plain: &Samples, traced: &Samples) -> f64 {
    let logs: Vec<f64> = plain
        .iteration_ms
        .iter()
        .filter_map(|(q, p)| {
            let t = traced.iteration_ms.get(q)?;
            Some((median(p) / median(t)).ln())
        })
        .filter(|x| x.is_finite())
        .collect();
    if logs.is_empty() {
        return 0.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// splitmix64: the benchmark's workload generator, seeded from `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x7065_7266_6265_6e63)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A derived generator for an independent stream.
    pub fn fork(&mut self, tag: u64) -> Rng {
        Rng(self.next_u64() ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(beyond(&v, 0.99), 1);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn qps_is_steady_through_one_slow_window() {
        let mut s = Samples::default();
        for i in 0..20 {
            s.unit(10, if i == 3 { 10.0 } else { 1.0 });
        }
        assert_eq!(s.qps(), 10.0);
        s.clients = 2;
        assert_eq!(s.qps(), 20.0);
    }

    #[test]
    fn geomean_of_two_medians() {
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), vec![1.0, 1.0, 1.0]);
        m.insert("b".to_string(), vec![100.0]);
        assert!((geomean_of_medians(&m) - 10.0).abs() < 1e-9);
    }
}
