//! Experiment harness for the Stitch reproduction.
//!
//! One binary per paper table/figure lives in `src/bin/` (see DESIGN.md's
//! experiment index); hand-rolled microbenches live in `benches/` (the
//! offline sandbox has no Criterion). This library provides the shared
//! report formatting and the micro-timing and JSON helpers.

use std::fmt::Write as _;
use std::time::Instant;

/// Formats a two-column paper-vs-measured comparison row.
#[must_use]
pub fn row(label: &str, paper: &str, measured: &str) -> String {
    format!("{label:<38} {paper:>16} {measured:>16}")
}

/// Header for paper-vs-measured tables.
#[must_use]
pub fn header(title: &str) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "==== {title} ====");
    let _ = writeln!(s, "{}", row("quantity", "paper", "measured"));
    let _ = write!(s, "{}", "-".repeat(72));
    s
}

/// Geometric mean of a non-empty slice.
#[must_use]
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Times `f` over `iters` iterations after `warmup` warm-up calls and
/// prints a Criterion-style line; returns mean ns/iter.
pub fn time_fn<T>(name: &str, warmup: u32, iters: u32, mut f: impl FnMut() -> T) -> f64 {
    assert!(iters > 0);
    for _ in 0..warmup {
        std::hint::black_box(f());
    }
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    let ns = start.elapsed().as_nanos() as f64 / f64::from(iters);
    println!("{name:<44} {:>12.0} ns/iter  ({iters} iters)", ns);
    ns
}

/// Minimal JSON writer: enough for the flat report objects the perf
/// harness emits (`BENCH_sim.json`), with no external dependency.
#[derive(Debug, Default)]
pub struct JsonObject {
    fields: Vec<(String, String)>,
}

impl JsonObject {
    /// Empty object.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a string field (escapes quotes and backslashes).
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        let escaped = value.replace('\\', "\\\\").replace('"', "\\\"");
        self.fields
            .push((key.to_string(), format!("\"{escaped}\"")));
        self
    }

    /// Adds an integer field.
    pub fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Adds a float field (3 decimal places; NaN/inf become null).
    pub fn float(&mut self, key: &str, value: f64) -> &mut Self {
        let v = if value.is_finite() {
            format!("{value:.3}")
        } else {
            "null".into()
        };
        self.fields.push((key.to_string(), v));
        self
    }

    /// Adds a nested object field.
    pub fn object(&mut self, key: &str, value: &JsonObject) -> &mut Self {
        self.fields.push((key.to_string(), value.render()));
        self
    }

    /// Adds an array of nested objects.
    pub fn array(&mut self, key: &str, items: &[JsonObject]) -> &mut Self {
        let body: Vec<String> = items.iter().map(JsonObject::render).collect();
        self.fields
            .push((key.to_string(), format!("[{}]", body.join(","))));
        self
    }

    /// Renders the object as a compact JSON string.
    #[must_use]
    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        format!("{{{}}}", body.join(","))
    }

    /// Renders with a trailing newline, for writing to a file.
    #[must_use]
    pub fn render_pretty(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("  \"{k}\": {v}"))
            .collect();
        format!("{{\n{}\n}}\n", body.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn row_is_aligned() {
        let r = row("x", "1", "2");
        assert!(r.len() >= 38 + 16 + 16);
    }

    #[test]
    fn json_writer_renders() {
        let mut inner = JsonObject::new();
        inner.int("cycles", 42);
        let mut o = JsonObject::new();
        o.str("name", "fig\"12\"")
            .int("n", 3)
            .float("speedup", 2.5)
            .float("bad", f64::NAN)
            .object("inner", &inner)
            .array("items", &[inner]);
        let s = o.render();
        assert_eq!(
            s,
            "{\"name\":\"fig\\\"12\\\"\",\"n\":3,\"speedup\":2.500,\"bad\":null,\
             \"inner\":{\"cycles\":42},\"items\":[{\"cycles\":42}]}"
        );
    }

    #[test]
    fn time_fn_returns_positive() {
        let ns = time_fn("test/noop-ish", 1, 10, || std::hint::black_box(1 + 1));
        assert!(ns >= 0.0);
    }
}
