//! Benchmark-side spans around each call into a layer.
//!
//! A traced run records one span per layer call (name, parent, start and
//! end in microseconds since the run began) in memory and writes them as
//! JSONL when the run ends. An untraced run records nothing: `enter`
//! returns an inert guard after one branch.

use std::cell::RefCell;
use std::time::Instant;

struct Record {
    id: usize,
    parent: Option<usize>,
    name: &'static str,
    start_us: u64,
    end_us: u64,
}

#[derive(Default)]
struct Recorder {
    on: bool,
    origin: Option<Instant>,
    records: Vec<Record>,
    stack: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Turn recording on or off for the spans this thread opens from now on.
pub fn set_enabled(on: bool) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.on = on;
        r.origin.get_or_insert_with(Instant::now);
    });
}

/// An open span; closes on drop.
pub struct Span(Option<usize>);

/// Open a span named after the layer call it wraps.
pub fn enter(name: &'static str) -> Span {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return Span(None);
        }
        let origin = *r.origin.get_or_insert_with(Instant::now);
        let id = r.records.len();
        let parent = r.stack.last().copied();
        r.records.push(Record {
            id,
            parent,
            name,
            start_us: origin.elapsed().as_micros() as u64,
            end_us: 0,
        });
        r.stack.push(id);
        Span(Some(id))
    })
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(id) = self.0 else {
            return;
        };
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let end = r
                .origin
                .map(|o| o.elapsed().as_micros() as u64)
                .unwrap_or(0);
            r.records[id].end_us = end;
            if r.stack.last() == Some(&id) {
                r.stack.pop();
            }
        });
    }
}

/// Per-name self time in seconds: each span's duration minus the part its
/// direct children cover, summed by name and sorted by name.
pub fn self_times() -> Vec<(&'static str, f64)> {
    REC.with(|r| {
        let r = r.borrow();
        let mut child_us = vec![0u64; r.records.len()];
        for rec in &r.records {
            if let Some(p) = rec.parent {
                child_us[p] += rec.end_us.saturating_sub(rec.start_us);
            }
        }
        let mut by_name: std::collections::BTreeMap<&'static str, f64> = Default::default();
        for rec in &r.records {
            let total = rec.end_us.saturating_sub(rec.start_us);
            *by_name.entry(rec.name).or_default() +=
                total.saturating_sub(child_us[rec.id]) as f64 * 1e-6;
        }
        by_name.into_iter().collect()
    })
}

/// Write every recorded span as one JSON object per line.
pub fn write_jsonl(path: &std::path::Path) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let text = REC.with(|r| {
        let r = r.borrow();
        let mut out = String::new();
        for rec in &r.records {
            let parent = rec.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{},\"end_us\":{}}}",
                rec.id, rec.name, rec.start_us, rec.end_us
            );
        }
        out
    });
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_off_records_nothing() {
        set_enabled(false);
        drop(enter("ignored"));
        set_enabled(true);
        {
            let _outer = enter("outer");
            std::thread::sleep(std::time::Duration::from_millis(4));
            let _inner = enter("inner");
            std::thread::sleep(std::time::Duration::from_millis(4));
        }
        let times = self_times();
        let names: Vec<_> = times.iter().map(|t| t.0).collect();
        assert_eq!(names, ["inner", "outer"]);
        assert!(times.iter().all(|t| t.1 >= 0.003 && t.1 < 0.5), "{times:?}");
    }
}
