//! In-memory span log for the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around the calls it
//! makes into each layer's public functions; nothing inside the system
//! under test is instrumented (that is ROADMAP item 3). The log lives in
//! memory and is written once, when the run ends. A disabled log records
//! nothing, so the untraced pass pays a branch per call.

use std::io::Write as _;
use std::time::Instant;

/// "No parent" / "no request" marker.
pub const NONE: u64 = u64::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NONE`].
    pub parent: u64,
    /// Spans of one request share this identifier; [`NONE`] outside requests.
    pub request: u64,
}

pub struct SpanLog {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(origin: Instant, enabled: bool) -> Self {
        SpanLog {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off: a traced invocation records its traced
    /// half and its probes, not its untraced half.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a span from timestamps the caller already took; returns its
    /// index (a parent for later spans), or [`NONE`] when disabled.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        request: u64,
    ) -> u64 {
        if !self.enabled {
            return NONE;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        });
        (self.spans.len() - 1) as u64
    }

    /// Durations in seconds of every span called `name`, in record order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write `{"names": [...], "spans": [[name, start_ns, end_ns, parent,
    /// request], ...]}`; `-1` stands for "none". Span names repeat tens of
    /// thousands of times, hence the name table.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut names: Vec<&'static str> = Vec::new();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut rows = String::new();
        for s in &self.spans {
            let ni = names.iter().position(|n| *n == s.name).unwrap_or_else(|| {
                names.push(s.name);
                names.len() - 1
            });
            let opt = |v: u64| if v == NONE { -1 } else { v as i64 };
            if !rows.is_empty() {
                rows.push_str(",\n");
            }
            rows.push_str(&format!(
                "[{ni},{},{},{},{}]",
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.request)
            ));
        }
        let names: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
        writeln!(
            out,
            "{{\"columns\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"request\"],\n\"names\": [{}],\n\"spans\": [\n{rows}\n]}}",
            names.join(", ")
        )?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(Instant::now(), false);
        assert_eq!(
            log.push("y", Instant::now(), Instant::now(), NONE, NONE),
            NONE
        );
        assert_eq!(log.len(), 0);
    }

    #[test]
    fn durations_filter_by_name() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut log = SpanLog::new(t0, true);
        let root = log.push("request", at(0), at(10), NONE, 5);
        log.push("engine", at(4), at(9), root, 5);
        log.push("engine", at(2), at(3), NONE, 6);
        assert_eq!(log.durations_s("engine"), vec![0.005, 0.001]);
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn json_names_every_span_once() {
        let t0 = Instant::now();
        let mut log = SpanLog::new(t0, true);
        let a = log.push("a", t0, t0 + Duration::from_nanos(5), NONE, NONE);
        log.push("b", t0, t0 + Duration::from_nanos(2), a, 9);
        log.push("a", t0, t0 + Duration::from_nanos(1), NONE, NONE);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-spans.json");
        log.write_json(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let v = crate::json::Json::parse(&text).unwrap();
        assert_eq!(v.get("names").unwrap().as_arr().unwrap().len(), 2);
        let spans = v.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].as_arr().unwrap()[3].as_f64(), Some(0.0));
        assert_eq!(spans[0].as_arr().unwrap()[3].as_f64(), Some(-1.0));
    }
}
