//! Order statistics and process counters read from `/proc`.

use std::fs;

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median, first and third quartile, min and max.
#[derive(Debug, Clone, Copy)]
pub struct Spread {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

impl Spread {
    pub fn of(values: &[f64]) -> Spread {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Spread {
            median: percentile_sorted(&sorted, 50.0),
            q1: percentile_sorted(&sorted, 25.0),
            q3: percentile_sorted(&sorted, 75.0),
            min: sorted.first().copied().unwrap_or(f64::NAN),
            max: sorted.last().copied().unwrap_or(f64::NAN),
        }
    }

    /// The interquartile distance as a share of the median.
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len().max(1) as f64).exp()
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Clock ticks per second of the `/proc/<pid>/stat` CPU fields (Linux
/// fixes `USER_HZ` at 100 for user space).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of a process (`self` or a pid), or of the
/// calling thread (`thread-self`).
pub fn cpu_seconds(who: &str) -> f64 {
    let Ok(text) = fs::read_to_string(format!("/proc/{who}/stat")) else {
        return 0.0;
    };
    // Fields after the parenthesized command name start at field 3.
    let Some(rest) = text.rfind(')').map(|i| &text[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => (user + system) / USER_HZ,
        _ => 0.0,
    }
}

/// Peak resident set size (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(who: &str) -> f64 {
    fs::read_to_string(format!("/proc/{who}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[3.0], 90.0), 3.0);
        let s = Spread::of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 4.0, 6.0));
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn proc_counters_read_this_process() {
        assert!(peak_rss_mb("self") > 0.0);
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 30 {}
        assert!(cpu_seconds("self") > 0.0);
        assert!(cpu_seconds("thread-self") >= 0.0);
    }
}
