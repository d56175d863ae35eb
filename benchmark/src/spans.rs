//! In-memory spans recorded around calls into each layer.
//!
//! A span has a layer name, start, end, parent and a group id (the
//! transaction on the load-generator side, the trace `seq` on the replay
//! side). Spans of one recorder come from one thread, so they nest
//! properly; a layer's *self time* is its spans' durations minus the
//! time their child spans cover. Recorders are written out at the end
//! of a rep as a Chrome trace that Perfetto can load.

use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Rec {
    layer: u8,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    group: u64,
}

/// A span handle returned by [`Spans::open`].
#[must_use]
pub struct Open(Option<u32>);

/// One thread's span recorder. A disabled recorder records nothing and
/// costs one branch per call.
pub struct Spans {
    names: &'static [&'static str],
    origin: Instant,
    on: bool,
    recs: Vec<Rec>,
    stack: Vec<u32>,
    group: u64,
}

impl Spans {
    /// A recorder over layer `names`, timing from `origin`.
    pub fn new(names: &'static [&'static str], origin: Instant, on: bool) -> Spans {
        Spans {
            names,
            origin,
            on,
            recs: Vec::new(),
            stack: Vec::new(),
            group: 0,
        }
    }

    /// Turn recording on or off (spans already open still close).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// The group id stamped on spans opened from now on.
    pub fn set_group(&mut self, group: u64) {
        self.group = group;
    }

    /// Open a span of layer `layer` (an index into the names).
    pub fn open(&mut self, layer: usize) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.recs.len() as u32;
        self.recs.push(Rec {
            layer: layer as u8,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            group: self.group,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close a span opened by [`Spans::open`]; spans close innermost first.
    pub fn close(&mut self, open: Open) {
        if let Some(id) = open.0 {
            self.recs[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans must close innermost first");
        }
    }

    /// Per-layer self time in nanoseconds, indexed like the names.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<i64> = self
            .recs
            .iter()
            .map(|r| r.end_ns.saturating_sub(r.start_ns) as i64)
            .collect();
        for r in &self.recs {
            if r.parent != NO_PARENT {
                own[r.parent as usize] -= r.end_ns.saturating_sub(r.start_ns) as i64;
            }
        }
        let mut by_layer = vec![0u64; self.names.len()];
        for (r, t) in self.recs.iter().zip(own) {
            by_layer[r.layer as usize] += t.max(0) as u64;
        }
        by_layer
    }

    /// Total duration of root spans (spans without a parent), in ns.
    pub fn root_ns(&self) -> u64 {
        self.recs
            .iter()
            .filter(|r| r.parent == NO_PARENT)
            .map(|r| r.end_ns.saturating_sub(r.start_ns))
            .sum()
    }

    /// Append up to `cap` spans to a Chrome trace event list as complete
    /// (`"ph":"X"`) events on process `pid`, thread `tid`.
    pub fn chrome_events(&self, pid: u32, tid: u32, cap: usize, out: &mut String) {
        use std::fmt::Write as _;
        for (i, r) in self.recs.iter().take(cap).enumerate() {
            if !out.ends_with('[') {
                out.push(',');
            }
            let parent = if r.parent == NO_PARENT {
                "null".to_string()
            } else {
                r.parent.to_string()
            };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"group\":{}}}}}",
                self.names[r.layer as usize],
                r.start_ns as f64 / 1e3,
                r.end_ns.saturating_sub(r.start_ns) as f64 / 1e3,
                r.group
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        const NAMES: &[&str] = &["root", "child"];
        let mut s = Spans::new(NAMES, Instant::now(), true);
        let root = s.open(0);
        let c1 = s.open(1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.close(c1);
        let c2 = s.open(1);
        s.close(c2);
        s.close(root);
        let own = s.self_ns();
        assert_eq!(own[0] + own[1], s.root_ns());
        assert!(own[1] >= 2_000_000);
        let mut json = String::from("[");
        s.chrome_events(1, 0, 10, &mut json);
        json.push(']');
        let parsed = ccdb_obs::Json::parse(&json).unwrap();
        assert_eq!(parsed.items().unwrap().len(), 3);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        const NAMES: &[&str] = &["root"];
        let mut s = Spans::new(NAMES, Instant::now(), false);
        let o = s.open(0);
        s.close(o);
        assert_eq!(s.root_ns(), 0);
        assert_eq!(s.self_ns(), vec![0]);
    }
}
