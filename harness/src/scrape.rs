//! `GET /metrics` scraping: Prometheus text → name/value map, diffed across
//! a timed window for the count and rate metrics.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One scrape: sample name (with its label set, e.g.
/// `par_batch_query_nanos{quantile="0.5"}`) → value.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    /// Parses the Prometheus text exposition format: `#` lines are
    /// comments, every other non-blank line is `name[{labels}] value`.
    /// Lines that do not parse are skipped, not fatal — a scraper must
    /// survive a metric it does not know.
    pub fn parse(text: &str) -> Scrape {
        let mut values = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some((name, value)) = line.rsplit_once(' ') {
                if let Ok(value) = value.trim().parse::<f64>() {
                    values.insert(name.trim().to_string(), value);
                }
            }
        }
        Scrape(values)
    }

    /// The value of the registry metric `dotted.name` (the endpoint
    /// replaces dots with underscores); `0.0` when it never fired.
    pub fn get(&self, dotted: &str) -> f64 {
        self.0
            .get(&dotted.replace(['.', '-'], "_"))
            .copied()
            .unwrap_or(0.0)
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.0.len()
    }
}

/// The growth of `dotted.name` between two scrapes.
pub fn delta(before: &Scrape, after: &Scrape, dotted: &str) -> f64 {
    after.get(dotted) - before.get(dotted)
}

/// `hit / (hit + miss)` style ratios over a window; `0.0` on an idle one.
pub fn ratio(part: f64, rest: f64) -> f64 {
    if part + rest > 0.0 {
        part / (part + rest)
    } else {
        0.0
    }
}

/// One `GET <path>` on a fresh connection, returning the response body.
pub fn http_get(addr: SocketAddr, path: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: harness\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("GET {path}: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("GET {path}: {e}"))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("GET {path}: malformed response"))?;
    if !head.starts_with("HTTP/1.1 200") {
        let status = head.lines().next().unwrap_or("");
        return Err(format!("GET {path}: {status}"));
    }
    Ok(body.to_string())
}

pub fn scrape(addr: SocketAddr) -> Result<Scrape, String> {
    Ok(Scrape::parse(&http_get(addr, "/metrics")?))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Captured from `certainty serve --listen` after a handful of requests.
    const SAMPLE: &str = "\
# TYPE data_index_cache_hit counter
data_index_cache_hit 4021
# TYPE exec_plan_cache_hit counter
exec_plan_cache_hit 1300
# TYPE exec_plan_cache_miss counter
exec_plan_cache_miss 100
# TYPE par_batch_query_nanos summary
par_batch_query_nanos{quantile=\"0.5\"} 16384
par_batch_query_nanos{quantile=\"0.9\"} 32768
par_batch_query_nanos{quantile=\"0.99\"} 131072
par_batch_query_nanos_sum 91234567
par_batch_query_nanos_count 4000
# TYPE par_pool_steals gauge
par_pool_steals 17
# TYPE serve_epoch gauge
serve_epoch 13201
this line is not a sample
";

    #[test]
    fn prometheus_text_parses_into_a_name_value_map() {
        let scrape = Scrape::parse(SAMPLE);
        assert_eq!(scrape.len(), 10);
        assert_eq!(scrape.get("exec.plan_cache.hit"), 1300.0);
        assert_eq!(scrape.get("par.pool.steals"), 17.0);
        assert_eq!(scrape.get("par.batch.query_nanos_count"), 4000.0);
        assert_eq!(scrape.get("never.fired"), 0.0);
    }

    #[test]
    fn windows_are_diffs_and_ratios_survive_idle_windows() {
        let before = Scrape::parse(SAMPLE);
        let after = Scrape::parse(
            &SAMPLE
                .replace("exec_plan_cache_hit 1300", "exec_plan_cache_hit 1900")
                .replace("exec_plan_cache_miss 100", "exec_plan_cache_miss 300"),
        );
        let hit = delta(&before, &after, "exec.plan_cache.hit");
        let miss = delta(&before, &after, "exec.plan_cache.miss");
        assert_eq!((hit, miss), (600.0, 200.0));
        assert_eq!(ratio(hit, miss), 0.75);
        assert_eq!(ratio(0.0, 0.0), 0.0);
    }
}
