//! Text rendering (aligned tables, quantiles, windowed rates) and the one
//! JSON writer behind every `results/BENCH_*.json`.

use std::fmt::{self, Write as _};

/// Renders an aligned text table.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&render_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Selected quantiles of a (sorted ascending) value slice.
pub fn quantiles(sorted: &[f64], qs: &[f64]) -> Vec<(f64, f64)> {
    qs.iter()
        .map(|q| {
            if sorted.is_empty() {
                return (*q, f64::NAN);
            }
            let rank = ((q / 100.0) * (sorted.len() - 1) as f64).round() as usize;
            (*q, sorted[rank.min(sorted.len() - 1)])
        })
        .collect()
}

/// Buckets samples `(t_seconds, count)` into fixed windows, returning
/// `(window_start_s, rate_per_s)`.
pub fn windowed_rate(events: &[(f64, f64)], window_s: f64, until_s: f64) -> Vec<(f64, f64)> {
    let n = (until_s / window_s).ceil() as usize;
    let mut buckets = vec![0.0; n.max(1)];
    for (t, count) in events {
        let idx = (t / window_s) as usize;
        if idx < buckets.len() {
            buckets[idx] += count;
        }
    }
    buckets
        .into_iter()
        .enumerate()
        .map(|(i, total)| (i as f64 * window_s, total / window_s))
        .collect()
}

/// Mean of a slice (`NaN` when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Population standard deviation (`NaN` when empty).
pub fn stddev(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let m = mean(values);
    (values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / values.len() as f64).sqrt()
}

/// Aggregates for one phase of a closed-loop availability run.
#[derive(Debug, Clone)]
pub struct PhaseStats {
    /// Phase label.
    pub label: String,
    /// Appends completed in the phase.
    pub appends: u64,
    /// Mean append latency (ms).
    pub mean_latency_ms: f64,
    /// 99th-percentile append latency (ms).
    pub p99_latency_ms: f64,
    /// Appends per second over the phase.
    pub rate: f64,
}

/// Stats of the `(completion_s, latency_ms)` samples that completed in
/// `[from_s, until_s)`.
pub fn phase_stats(label: &str, samples: &[(f64, f64)], from_s: f64, until_s: f64) -> PhaseStats {
    let lat: Vec<f64> = samples
        .iter()
        .filter(|(t, _)| *t >= from_s && *t < until_s)
        .map(|(_, l)| *l)
        .collect();
    let lat_us: Vec<f64> = lat.iter().map(|ms| ms * 1e3).collect();
    let p99 = mala_sim::Hist::from_values(&lat_us)
        .quantile(0.99)
        .unwrap_or(0.0)
        / 1e3;
    PhaseStats {
        label: label.to_string(),
        appends: lat.len() as u64,
        mean_latency_ms: mean(&lat),
        p99_latency_ms: p99,
        rate: lat.len() as f64 / (until_s - from_s).max(f64::EPSILON),
    }
}

/// The appends/s series of `samples`, one point per second up to `until_s`.
pub fn append_rate(samples: &[(f64, f64)], until_s: f64) -> Vec<(f64, f64)> {
    let events: Vec<(f64, f64)> = samples.iter().map(|(t, _)| (*t, 1.0)).collect();
    windowed_rate(&events, 1.0, until_s)
}

/// The appends/s timeline followed by the per-phase table.
pub fn timeline(series: &[(f64, f64)], phases: &[PhaseStats]) -> String {
    let rows: Vec<Vec<String>> = series
        .iter()
        .map(|(t, r)| vec![format!("{t:.0}"), format!("{r:.0}")])
        .collect();
    let mut out = table(&["t (s)", "appends/s"], &rows);
    out.push('\n');
    let rows: Vec<Vec<String>> = phases
        .iter()
        .map(|p| {
            vec![
                p.label.clone(),
                p.appends.to_string(),
                format!("{:.1}", p.rate),
                format!("{:.2}", p.mean_latency_ms),
                format!("{:.2}", p.p99_latency_ms),
            ]
        })
        .collect();
    out.push_str(&table(
        &["phase", "appends", "ops/s", "mean ms", "p99 ms"],
        &rows,
    ));
    out
}

/// A JSON value as the `results/BENCH_*.json` files need it: numbers carry
/// their decimal places, object keys keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    Int(u64),
    /// A float printed with a fixed number of decimals; a non-finite
    /// value (an empty mean, a zero-time rate) prints as `null`.
    Fixed(f64, usize),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in the order given.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array with one element per item.
    pub fn arr<T>(items: impl IntoIterator<Item = T>, f: impl FnMut(T) -> Json) -> Json {
        Json::Arr(items.into_iter().map(f).collect())
    }

    /// The value under `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn write(&self, out: &mut dyn fmt::Write, depth: usize) -> fmt::Result {
        match self {
            Json::Bool(b) => write!(out, "{b}"),
            Json::Int(n) => write!(out, "{n}"),
            Json::Fixed(x, places) if x.is_finite() => write!(out, "{x:.places$}"),
            Json::Fixed(..) => out.write_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_seq(out, depth, ['[', ']'], items.len(), &mut |out, i| {
                items[i].write(out, depth + 1)
            }),
            Json::Obj(pairs) => write_seq(out, depth, ['{', '}'], pairs.len(), &mut |out, i| {
                write_str(out, &pairs[i].0)?;
                out.write_str(": ")?;
                pairs[i].1.write(out, depth + 1)
            }),
        }
    }
}

/// Containers nested less deep than this put one child per line; deeper
/// ones stay on one line. Two levels gives the `results/` files a line per
/// top-level key and per element of a top-level array.
const EXPANDED_DEPTH: usize = 2;

fn write_seq(
    out: &mut dyn fmt::Write,
    depth: usize,
    [open, close]: [char; 2],
    len: usize,
    child: &mut dyn FnMut(&mut dyn fmt::Write, usize) -> fmt::Result,
) -> fmt::Result {
    let multiline = depth < EXPANDED_DEPTH && len > 0;
    out.write_char(open)?;
    for i in 0..len {
        if multiline {
            write!(out, "\n{}", "  ".repeat(depth + 1))?;
        } else if i > 0 {
            out.write_char(' ')?;
        }
        child(out, i)?;
        if i + 1 < len {
            out.write_char(',')?;
        }
    }
    if multiline {
        write!(out, "\n{}", "  ".repeat(depth))?;
    }
    out.write_char(close)
}

fn write_str(out: &mut dyn fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            c if u32::from(c) < 0x20 => write!(out, "\\u{:04x}", u32::from(c))?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// The file form; ends with a newline.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)?;
        f.write_char('\n')
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

macro_rules! json_int {
    ($($int:ty),*) => {$(
        impl From<$int> for Json {
            fn from(n: $int) -> Json {
                Json::Int(n as u64)
            }
        }
    )*};
}
json_int!(u32, u64, usize);

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let out = table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a     "));
        assert!(lines[3].starts_with("longer"));
    }

    #[test]
    fn quantiles_pick_ranks() {
        let sorted: Vec<f64> = (0..101).map(f64::from).collect();
        let qs = quantiles(&sorted, &[0.0, 50.0, 99.0, 100.0]);
        assert_eq!(qs[1].1, 50.0);
        assert_eq!(qs[2].1, 99.0);
        assert_eq!(qs[3].1, 100.0);
        assert!(quantiles(&[], &[50.0])[0].1.is_nan());
    }

    #[test]
    fn windowed_rate_buckets() {
        let events = vec![(0.1, 5.0), (0.9, 5.0), (1.5, 20.0)];
        let rates = windowed_rate(&events, 1.0, 3.0);
        assert_eq!(rates.len(), 3);
        assert_eq!(rates[0], (0.0, 10.0));
        assert_eq!(rates[1], (1.0, 20.0));
        assert_eq!(rates[2], (2.0, 0.0));
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!((stddev(&[2.0, 4.0]) - 1.0).abs() < 1e-12);
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn json_non_finite_numbers_are_null() {
        let doc = Json::obj([
            ("mean", Json::Fixed(mean(&[]), 3)),
            ("rate", Json::Fixed(f64::INFINITY, 0)),
            ("neg", Json::Fixed(f64::NEG_INFINITY, 1)),
        ]);
        assert_eq!(
            doc.to_string(),
            "{\n  \"mean\": null,\n  \"rate\": null,\n  \"neg\": null\n}\n"
        );
    }

    #[test]
    fn json_strings_are_escaped() {
        let doc = Json::obj([("a\"b", Json::from("q\"uote \\ back\nline\ttab\u{1}é"))]);
        assert_eq!(
            doc.to_string(),
            "{\n  \"a\\\"b\": \"q\\\"uote \\\\ back\\nline\\u0009tab\\u0001é\"\n}\n"
        );
    }

    #[test]
    fn json_numbers_keep_their_fixed_precision() {
        let doc = Json::Arr(vec![
            Json::Fixed(2.0, 3),
            Json::Fixed(1234.5678, 1),
            Json::Fixed(0.5, 0),
            Json::Fixed(-0.004, 2),
            Json::from(7u64),
            Json::from(true),
        ]);
        assert_eq!(
            doc.to_string(),
            "[\n  2.000,\n  1234.6,\n  0,\n  -0.00,\n  7,\n  true\n]\n"
        );
    }

    #[test]
    fn json_nests_two_levels_per_line_and_the_rest_inline() {
        let doc = Json::obj([
            ("bench", Json::from("x")),
            (
                "runs",
                Json::arr([1u64, 2], |n| {
                    Json::obj([
                        ("n", Json::from(n)),
                        ("shares", Json::obj([("0", Json::Fixed(0.25, 4))])),
                        ("pair", Json::Arr(vec![Json::from(n), Json::from(false)])),
                    ])
                }),
            ),
            ("empty", Json::Arr(vec![])),
        ]);
        assert_eq!(
            doc.to_string(),
            "{\n  \"bench\": \"x\",\n  \"runs\": [\n    \
             {\"n\": 1, \"shares\": {\"0\": 0.2500}, \"pair\": [1, false]},\n    \
             {\"n\": 2, \"shares\": {\"0\": 0.2500}, \"pair\": [2, false]}\n  ],\n  \
             \"empty\": []\n}\n"
        );
        assert_eq!(doc.get("bench"), Some(&Json::from("x")));
        assert_eq!(doc.get("missing"), None);
    }
}
