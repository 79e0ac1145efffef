//! Measurement primitives: quantiles, process resource usage, the span
//! recorder of the traced run, and the per-op pass/fail tally.

use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Linear-interpolated quantile (`q` in `[0, 1]`) of unsorted samples;
/// `NaN` when there are none.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Milliseconds in a duration, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Resource usage of the whole process (every thread): CPU seconds
/// (user + system) and peak resident set in MB.
pub struct Usage {
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as Linux lays it out on 64-bit targets.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A `cpu_set_t` of 1024 bits.
type CpuMask = [u64; 16];

/// The CPUs the process may run on, lowest first.
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is a writable cpu_set_t of the size passed; pid 0 is
    // the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc < 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok((0..mask.len() * 64)
        .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .collect())
}

/// Confine the calling thread, and every thread it starts from now on,
/// to `cpu`.
pub fn pin_thread(cpu: usize) -> Result<(), String> {
    let mut mask: CpuMask = [0; 16];
    *mask
        .get_mut(cpu / 64)
        .ok_or(format!("cpu {cpu} beyond a 1024-bit mask"))? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable cpu_set_t of the size passed; pid 0 is
    // the calling thread, whose mask new threads inherit.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity to cpu {cpu}: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_THREAD: i32 = 1;

fn rusage(who: i32) -> Usage {
    let mut r = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `r` is a writable `struct rusage` with the C layout the
    // call fills, and `who` is RUSAGE_SELF or RUSAGE_THREAD.
    let rc = unsafe { getrusage(who, &mut r) };
    assert_eq!(rc, 0, "getrusage cannot fail with a valid buffer");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        cpu_s: secs(&r.utime) + secs(&r.stime),
        peak_rss_mb: r.maxrss as f64 / 1024.0,
    }
}

/// `getrusage(RUSAGE_SELF)`: every thread of the process.
pub fn usage() -> Usage {
    rusage(RUSAGE_SELF)
}

/// CPU seconds of the calling thread alone.
pub fn thread_cpu_s() -> f64 {
    rusage(RUSAGE_THREAD).cpu_s
}

/// One recorded span. `program` marks spans taken from the program's own
/// `xpdl-obs` collector rather than recorded around a public call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub program: bool,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// The traced run's span recorder. Spans stay in memory until
/// [`Tracer::write`]; when off, [`Tracer::span`] only runs its closure.
pub struct Tracer {
    on: bool,
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Run `f` inside span `name` of op `op` under `parent`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.push(name, false, op, parent, start, start.elapsed());
        out
    }

    /// Record a finished span; returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        program: bool,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        dur: Duration,
    ) -> usize {
        let start_ns = start.saturating_duration_since(self.t0).as_nanos() as u64;
        self.spans.push(Span {
            name,
            program,
            op,
            parent,
            start_ns,
            dur_ns: dur.as_nanos() as u64,
        });
        self.spans.len() - 1
    }

    /// Open an op's root span (children name it as parent); `None` when off.
    pub fn open(&mut self, name: &'static str, op: u64, start: Instant) -> Option<usize> {
        self.on
            .then(|| self.push(name, false, op, None, start, Duration::ZERO))
    }

    /// Close a root span opened by [`Tracer::open`].
    pub fn close(&mut self, idx: Option<usize>, dur: Duration) {
        if let Some(i) = idx {
            self.spans[i].dur_ns = dur.as_nanos() as u64;
        }
    }

    /// Move the program's `xpdl-obs` spans recorded since the last drain
    /// into the ledger as children of `parent`, keeping their nesting.
    pub fn adopt_program_spans(&mut self, op: u64, parent: Option<usize>) {
        let records = xpdl_obs::trace::global_collector().drain();
        if !self.on {
            return;
        }
        let obs_t0 = xpdl_obs::trace::now_ns();
        let shift = self.t0.elapsed().as_nanos() as i128 - obs_t0 as i128;
        let mut index = std::collections::HashMap::new();
        for r in records
            .iter()
            .filter(|r| r.kind == xpdl_obs::trace::Kind::Span)
        {
            let p = index.get(&r.parent).copied().or(parent);
            let start_ns = (r.start_ns as i128 + shift).max(0) as u64;
            self.spans.push(Span {
                name: r.name,
                program: true,
                op,
                parent: p,
                start_ns,
                dur_ns: r.dur_ns,
            });
            index.insert(r.id, self.spans.len() - 1);
        }
    }

    /// Per-op totals (ns) of the spans called `name`, by op id.
    pub fn per_op(&self, name: &str, program: bool) -> std::collections::BTreeMap<u64, f64> {
        let mut by_op = std::collections::BTreeMap::new();
        for s in self
            .spans
            .iter()
            .filter(|s| s.name == name && s.program == program)
        {
            *by_op.entry(s.op).or_default() += s.dur_ns as f64;
        }
        by_op
    }

    /// Write the spans of each loop's first `max_ops` ops as
    /// tab-separated `index op parent name source start_ns dur_ns` lines
    /// (the point-read loops run far more ops than a reader needs).
    pub fn write(&self, path: &Path, max_ops: u64) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let omitted = self.spans.iter().filter(|s| s.op >= max_ops).count();
        writeln!(
            out,
            "# {} spans; {omitted} of ops >= {max_ops} omitted",
            self.spans.len()
        )?;
        writeln!(out, "index\top\tparent\tname\tsource\tstart_ns\tdur_ns")?;
        for (i, s) in self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.op < max_ops)
        {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let source = if s.program { "program" } else { "bench" };
            writeln!(
                out,
                "{i}\t{}\t{parent}\t{}\t{source}\t{}\t{}",
                s.op, s.name, s.start_ns, s.dur_ns
            )?;
        }
        out.flush()
    }
}

/// Ops attempted and failed, with the first few failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    /// Count one op and its outcome.
    pub fn settle(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(format!("op {}: {e}", self.attempted));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn usage_reports_cpu_and_rss() {
        let u = usage();
        assert!(u.cpu_s > 0.0 && u.peak_rss_mb > 1.0);
        assert!(thread_cpu_s() <= usage().cpu_s);
    }

    #[test]
    fn a_thread_pins_to_an_allowed_cpu() {
        let cpus = allowed_cpus().unwrap();
        let last = *cpus.last().expect("at least one cpu");
        std::thread::spawn(move || {
            pin_thread(last).unwrap();
            assert_eq!(allowed_cpus().unwrap(), [last]);
        })
        .join()
        .unwrap();
        assert_eq!(
            allowed_cpus().unwrap(),
            cpus,
            "other threads keep their mask"
        );
    }

    #[test]
    fn tally_counts_failures() {
        let mut t = Tally::default();
        t.settle(Ok(()));
        t.settle(Err("wrong".into()));
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert!(t.errors[0].contains("op 2: wrong"));
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 1, None, || 7), 7);
        assert!(t.open("op", 1, Instant::now()).is_none());
        assert!(t.spans.is_empty());
    }
}
