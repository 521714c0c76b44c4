//! Benchmark-side spans: kept in memory during the traced run and written
//! once at the end as Chrome `trace_event` JSON.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. `op` is the commit or restore the span belongs to;
/// `parent` is the id of the enclosing span, if any.
struct Rec {
    name: &'static str,
    id: u64,
    parent: Option<u64>,
    op: u64,
    tid: usize,
    start: Instant,
    end: Instant,
}

/// In-memory span recorder; a disabled recorder records nothing.
pub(crate) struct Spans {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    recs: Mutex<Vec<Rec>>,
}

impl Spans {
    pub(crate) fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            recs: Mutex::new(Vec::new()),
        }
    }

    /// A fresh id for one commit or restore.
    pub(crate) fn op_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a closed span and returns its id (0 when disabled).
    pub(crate) fn record(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<u64>,
        tid: usize,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let rec = Rec { name, id, parent, op, tid, start, end };
        self.recs.lock().expect("span recorder poisoned").push(rec);
        id
    }

    /// Summed duration in seconds of every span called `name`.
    pub(crate) fn total_secs(&self, name: &str) -> f64 {
        let recs = self.recs.lock().expect("span recorder poisoned");
        recs.iter().filter(|r| r.name == name).map(|r| (r.end - r.start).as_secs_f64()).sum()
    }

    /// Writes every span as a Chrome complete event (`"ph": "X"`), with
    /// the op id and parent span id in `args`.
    pub(crate) fn write_chrome(&self, path: &Path) -> std::io::Result<usize> {
        let recs = self.recs.lock().expect("span recorder poisoned");
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        let events: Vec<String> = recs
            .iter()
            .map(|r| {
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"op\":{},\"parent\":{}}}}}",
                    r.name,
                    r.tid,
                    us(r.start),
                    us(r.end) - us(r.start),
                    r.id,
                    r.op,
                    r.parent.map_or("null".to_string(), |p| p.to_string())
                )
            })
            .collect();
        std::fs::write(path, format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n")))?;
        Ok(events.len())
    }
}
