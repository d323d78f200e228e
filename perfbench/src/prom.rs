//! A reader for the Prometheus text exposition that `GET /metrics`
//! serves, and deltas between two scrapes.
//!
//! Histograms are exported as summaries: `name_sum` and `name_count`
//! are cumulative, so the difference of two scrapes gives the work done
//! (and its mean) between them. Quantile lines are kept but are
//! lifetime values and say nothing about a window.

use std::collections::BTreeMap;

/// One parsed series: metric name, labels, value.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub name: String,
    pub labels: BTreeMap<String, String>,
    pub value: f64,
}

/// One `/metrics` scrape.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape {
    pub samples: Vec<Sample>,
}

impl Scrape {
    /// Parses an exposition body. Comment and blank lines are skipped;
    /// a malformed line is an error naming it.
    pub fn parse(text: &str) -> Result<Scrape, String> {
        let mut samples = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            samples.push(parse_line(line).ok_or_else(|| format!("bad metrics line `{line}`"))?);
        }
        Ok(Scrape { samples })
    }

    /// Sum of every series named `name` whose labels include all of
    /// `labels` (0 when none match).
    pub fn sum(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .filter(|s| {
                labels
                    .iter()
                    .all(|(k, v)| s.labels.get(*k).is_some_and(|x| x == v))
            })
            .map(|s| s.value)
            .sum()
    }

    /// `self.sum(..) - before.sum(..)`: the change between two scrapes.
    pub fn delta(&self, before: &Scrape, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.sum(name, labels) - before.sum(name, labels)
    }

    /// Change of a summary's `_count` and `_sum` between two scrapes.
    pub fn summary_delta(
        &self,
        before: &Scrape,
        name: &str,
        labels: &[(&str, &str)],
    ) -> SummaryDelta {
        SummaryDelta {
            count: self.delta(before, &format!("{name}_count"), labels),
            sum: self.delta(before, &format!("{name}_sum"), labels),
        }
    }
}

/// Observations and their total between two scrapes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SummaryDelta {
    pub count: f64,
    pub sum: f64,
}

impl SummaryDelta {
    /// Mean observation, or 0 when nothing was observed.
    pub fn mean(&self) -> f64 {
        if self.count > 0.0 {
            self.sum / self.count
        } else {
            0.0
        }
    }
}

fn parse_line(line: &str) -> Option<Sample> {
    let (series, value) = line.rsplit_once(' ')?;
    let value: f64 = value.parse().ok()?;
    let (name, labels) = match series.split_once('{') {
        None => (series, BTreeMap::new()),
        Some((name, rest)) => (name, parse_labels(rest.strip_suffix('}')?)?),
    };
    Some(Sample {
        name: name.to_owned(),
        labels,
        value,
    })
}

/// Parses `k="v",k2="v2"` with `\\`, `\"` and `\n` escapes.
fn parse_labels(text: &str) -> Option<BTreeMap<String, String>> {
    let mut labels = BTreeMap::new();
    let mut chars = text.chars().peekable();
    loop {
        let key: String = chars.by_ref().take_while(|&c| c != '=').collect();
        if key.is_empty() {
            return Some(labels);
        }
        if chars.next()? != '"' {
            return None;
        }
        let mut value = String::new();
        loop {
            match chars.next()? {
                '"' => break,
                '\\' => match chars.next()? {
                    'n' => value.push('\n'),
                    other => value.push(other),
                },
                c => value.push(c),
            }
        }
        labels.insert(key.trim_start_matches(',').to_owned(), value);
        if chars.peek() == Some(&',') {
            chars.next();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "\
# TYPE ltm_http_request_duration_seconds summary
ltm_http_request_duration_seconds{endpoint=\"/query\",domain=\"default\",quantile=\"0.5\"} 0.000051
ltm_http_request_duration_seconds_sum{endpoint=\"/query\",domain=\"default\"} 0.5
ltm_http_request_duration_seconds_count{endpoint=\"/query\",domain=\"default\"} 1000
ltm_http_request_duration_seconds_sum{endpoint=\"/claims\",domain=\"default\"} 2
ltm_http_request_duration_seconds_count{endpoint=\"/claims\",domain=\"default\"} 10
# TYPE ltm_keepalive_reuse_total counter
ltm_keepalive_reuse_total 900
ltm_build_info{version=\"0.1.0\",git=\"v1-\\\"x\\\"\"} 1
";

    const AFTER: &str = "\
ltm_http_request_duration_seconds_sum{endpoint=\"/query\",domain=\"default\"} 1.5
ltm_http_request_duration_seconds_count{endpoint=\"/query\",domain=\"default\"} 3000
ltm_http_request_duration_seconds_sum{endpoint=\"/claims\",domain=\"default\"} 2
ltm_http_request_duration_seconds_count{endpoint=\"/claims\",domain=\"default\"} 10
ltm_keepalive_reuse_total 2800
ltm_refit_phase_duration_seconds_sum{phase=\"fold\",domain=\"default\"} 0.25
";

    #[test]
    fn parses_labels_values_and_escapes() {
        let s = Scrape::parse(BEFORE).unwrap();
        assert_eq!(s.samples.len(), 7);
        let info = &s.samples[6];
        assert_eq!(info.name, "ltm_build_info");
        assert_eq!(info.labels["git"], "v1-\"x\"");
        assert_eq!(s.sum("ltm_keepalive_reuse_total", &[]), 900.0);
        assert_eq!(
            s.sum(
                "ltm_http_request_duration_seconds",
                &[("endpoint", "/query"), ("quantile", "0.5")]
            ),
            0.000051
        );
    }

    #[test]
    fn deltas_between_scrapes() {
        let before = Scrape::parse(BEFORE).unwrap();
        let after = Scrape::parse(AFTER).unwrap();
        let q = after.summary_delta(
            &before,
            "ltm_http_request_duration_seconds",
            &[("endpoint", "/query")],
        );
        assert_eq!(q.count, 2000.0);
        assert_eq!(q.sum, 1.0);
        assert_eq!(q.mean(), 0.0005);
        let c = after.summary_delta(
            &before,
            "ltm_http_request_duration_seconds",
            &[("endpoint", "/claims")],
        );
        assert_eq!(c.mean(), 0.0);
        assert_eq!(
            after.delta(&before, "ltm_keepalive_reuse_total", &[]),
            1900.0
        );
        // A family that appears only in the later scrape counts from 0.
        assert_eq!(
            after.delta(
                &before,
                "ltm_refit_phase_duration_seconds_sum",
                &[("phase", "fold")]
            ),
            0.25
        );
        assert!(Scrape::parse("no_value_here").is_err());
    }
}
