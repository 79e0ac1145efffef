//! perfbench: the layer-ledger benchmark of the XPDL toolchain.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload compose_build|point_binary_reload|bulk_json \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Each process runs one workload over the pinned fleetgen library. The
//! work of a run is fixed by count: `--seconds` sets how many rounds run
//! (a rate calibrated on a 2-CPU host), never a clock. With `--trace 0`
//! the last stdout line carries the end-to-end metrics, with `--trace 1`
//! the per-layer ledger. The exit code is non-zero if any check failed.
//! See `perfbench/README.md`.

mod compose;
mod measure;
mod serve;

use compose::{Built, Library};
use measure::{median, quantile, Tally, Tracer};
use serve::{Client, Mix, ServeRun, Served};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// The workloads, with the rounds one run makes per `--seconds`.
const WORKLOADS: [(&str, u64); 3] = [
    ("compose_build", 12),
    ("point_binary_reload", 50),
    ("bulk_json", 180),
];
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// In the traced run, the other workloads run this share of their rounds:
/// a traced run prints every per-layer metric of `BENCHMARK.json`, and a
/// workload's layers are measured only when it runs.
const LEDGER_SHARE: u64 = 8;
/// The per-layer medians along an op's blocking path must sum to the
/// traced op median within this share of it.
const RECON_TOLERANCE_PCT: f64 = 15.0;

/// The span file keeps each loop's first this many ops.
const SPAN_FILE_OPS: u64 = 5_000;

/// Per-layer metrics: name and unit, in `BENCHMARK.json` order.
const LAYERS: &[(&str, &str)] = &[
    ("repo.resolve_ms", "ms"),
    ("repo.docs", "count"),
    ("xml.parse_ms", "ms"),
    ("elab.elaborate_ms", "ms"),
    ("elab.inherit_ms", "ms"),
    ("elab.expand_ms", "ms"),
    ("elab.analyze_ms", "ms"),
    ("elab.synthesize_ms", "ms"),
    ("elab.elements", "count"),
    ("runtime.build_ms", "ms"),
    ("runtime.encode_ms", "ms"),
    ("runtime.decode_ms", "ms"),
    ("runtime.xpdlrt_bytes", "B"),
    ("codegen.compile_ms", "ms"),
    ("codegen.strings", "count"),
    ("client.bin_encode_us", "us"),
    ("client.bin_decode_us", "us"),
    ("wire.bin_request_bytes", "B"),
    ("wire.bin_response_bytes", "B"),
    ("bin.engine.handle_us", "us"),
    ("bin.serve.method_us", "us"),
    ("bin.serve.transport_us", "us"),
    ("reload.write_ms", "ms"),
    ("reload.rpc_ms", "ms"),
    ("reload.decode_ms", "ms"),
    ("reload.fingerprint_ms", "ms"),
    ("reload.compile_ms", "ms"),
    ("reload.swaps", "count"),
    ("client.json_encode_us", "us"),
    ("engine.json_encode_us", "us"),
    ("json.engine.handle_us", "us"),
    ("json.serve.transport_us", "us"),
    ("client.json_decode_us.point", "us"),
    ("client.json_decode_us.bulk", "us"),
    ("client.json_decode_ns_per_byte.point", "ns/B"),
    ("client.json_decode_ns_per_byte.bulk", "ns/B"),
    ("wire.json_reply_bytes.point", "B"),
    ("wire.json_reply_bytes.bulk", "B"),
    ("recon.compose_build.residual_pct", "%"),
    ("recon.point_binary_reload.residual_pct", "%"),
    ("recon.bulk_json.residual_pct", "%"),
    ("traced.compose_build.op_ms", "ms"),
    ("traced.point_binary_reload.op_ms", "ms"),
    ("traced.bulk_json.op_ms", "ms"),
];

struct Args {
    workload: &'static str,
    rounds: u64,
    seed: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .ok_or(format!("missing {flag}"))
    };
    let name = get("--workload")?;
    let (workload, rate) = WORKLOADS
        .iter()
        .find(|(w, _)| w == name)
        .copied()
        .ok_or(format!("unknown workload {name:?}"))?;
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        rounds: seconds * rate,
        seed,
        trace,
    })
}

/// One set-up's state: the library, its first build, and for the serving
/// workloads the server, both connections and the request mixes.
struct Env {
    lib: Library,
    built: Built,
    mix: Mix,
    served: Option<Served>,
    bin: Option<Client>,
    json: Option<Client>,
}

/// Fleet generation, library write, first build; then the server start
/// and a warmed connection for each encoding asked for.
fn set_up(dir: &Path, seed: u64, bin: bool, json: bool) -> Result<Env, String> {
    let lib = compose::write_library(&dir.join("lib"))?;
    let built = compose::build(&lib.dir, &mut Tracer::new(false), 0, None)?;
    compose::check_build(&built, &lib.fleet)?;
    let mix = serve::mix(&built.model, &lib.fleet, seed);
    let mut env = Env {
        lib,
        built,
        mix,
        served: None,
        bin: None,
        json: None,
    };
    if bin || json {
        let mut s = Served::start(dir, serve::variants(&env.built, seed)?)?;
        for (binary, slot) in [(true, &mut env.bin), (false, &mut env.json)] {
            if binary && bin || !binary && json {
                let mut c = Client::connect(&s.addr, binary)?;
                serve::warm_up(&mut s, &mut c, &env.mix)?;
                *slot = Some(c);
            }
        }
        env.served = Some(s);
    }
    Ok(env)
}

impl Env {
    fn tear_down(self) {
        drop((self.bin, self.json));
        if let Some(s) = self.served {
            s.stop();
        }
    }
}

/// Everything one run measured.
#[derive(Default)]
struct Report {
    tally: Tally,
    /// Fatal faults: work-volume drift, a failed reconciliation.
    faults: Vec<String>,
    work: Vec<(String, String)>,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // The whole process runs on one CPU: pinned here, before any thread
    // starts, so every server thread inherits the mask. See README.md
    // ("One CPU") for why, and for what the figures cannot show.
    match measure::allowed_cpus().and_then(|cpus| {
        let cpu = *cpus.first().ok_or("no CPU allowed")?;
        measure::pin_thread(cpu).map(|_| cpu)
    }) {
        Ok(cpu) => eprintln!(
            "perfbench: confined to cpu {cpu}, {} server worker",
            serve::WORKERS
        ),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let dir = out.join(format!("run-{}", std::process::id()));
    let result = std::fs::create_dir_all(&dir)
        .map_err(|e| format!("create {}: {e}", dir.display()))
        .and_then(|_| run(&args, &dir, &out));
    let _ = std::fs::remove_dir_all(&dir);
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for e in report.tally.errors.iter().chain(&report.faults) {
        eprintln!("perfbench: FAILED {e}");
    }
    let work: Vec<String> = report
        .work
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("work {} {}", args.workload, work.join(" "));
    let correct = report.faults.is_empty() && report.tally.failed == 0;
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, unit, v)| {
            let value = if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.tally.attempted,
        report.tally.failed,
        metrics.join(",")
    );
    let finite = report.metrics.iter().all(|m| m.2.is_finite());
    std::process::exit(if correct && finite { 0 } else { 1 });
}

fn run(args: &Args, dir: &Path, out: &Path) -> Result<Report, String> {
    let bin = args.trace || args.workload == "point_binary_reload";
    let json = args.trace || args.workload == "bulk_json";
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut env = None;
    for _ in 0..SETUPS {
        if let Some(old) = env.take() {
            Env::tear_down(old);
        }
        let start = Instant::now();
        env = Some(set_up(dir, args.seed, bin, json)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut env = env.expect("at least one set-up");
    // The full getter sweep, once, outside every timed window.
    compose::check_getters(
        &env.built.getters,
        &env.built.model,
        &compose::named_nodes(&env.built.model),
    )?;

    let mut report = Report::default();
    report.work.push((
        "fleet_checksum".into(),
        format!("{:016x}", env.lib.fleet.checksum()),
    ));
    report
        .work
        .push(("docs".into(), env.built.docs.to_string()));
    report
        .work
        .push(("elements".into(), env.built.model.len().to_string()));
    report
        .work
        .push(("xpdlrt_bytes".into(), env.built.bytes.len().to_string()));

    let result = if args.trace {
        traced(args, &mut env, &mut report, out)
    } else {
        untraced(args, &mut env, &mut report, median(&setup_s))
    };
    env.tear_down();
    result.map(|_| report)
}

/// Rounds of `workload` in the traced run of `args.workload`.
fn ledger_rounds(args: &Args, workload: &str) -> u64 {
    let rate = |w: &str| {
        WORKLOADS
            .iter()
            .find(|x| x.0 == w)
            .expect("known workload")
            .1
    };
    if workload == args.workload {
        args.rounds
    } else {
        (args.rounds / rate(args.workload) * rate(workload) / LEDGER_SHARE).max(1)
    }
}

/// The end-to-end run: the workload's ops, untraced.
fn untraced(args: &Args, env: &mut Env, report: &mut Report, setup_s: f64) -> Result<(), String> {
    let mut tr = Tracer::new(false);
    let before = measure::usage();
    let loop_start = Instant::now();
    // compose_build's checks are heavy (a re-encode and walks of the
    // whole model per op), so their CPU is left out of its rate; the
    // serving workloads' checks are reply comparisons and stay in.
    let (op_ms, check_cpu_s) = match args.workload {
        "compose_build" => {
            let run = compose::compose_build(
                &env.lib,
                args.rounds,
                args.seed,
                &mut tr,
                &mut report.tally,
            )?;
            (run.op_ms, run.check_cpu_s)
        }
        w => (
            run_serving(w, args.rounds, env, &mut tr, report)?.latencies(),
            0.0,
        ),
    };
    let after = measure::usage();
    let cpu_s = after.cpu_s - before.cpu_s - check_cpu_s;
    eprintln!(
        "perfbench: {} ops in {:.3} s wall, {cpu_s:.3} s CPU ({check_cpu_s:.3} s of checks left out)",
        op_ms.len(),
        loop_start.elapsed().as_secs_f64()
    );
    report.metrics = vec![
        ("setup_s", "s", setup_s),
        ("op_ms", "ms", median(&op_ms)),
        ("op_p90_ms", "ms", quantile(&op_ms, 0.9)),
        ("ops_per_cpu_s", "1/s", op_ms.len() as f64 / cpu_s),
        ("peak_rss_mb", "MB", after.peak_rss_mb),
    ];
    if args.workload == "compose_build" {
        report.work.push(("builds".into(), op_ms.len().to_string()));
        expect_work(report, "builds", op_ms.len() as u64, args.rounds);
    }
    Ok(())
}

/// Run one serving workload and guard its work volume.
fn run_serving(
    workload: &str,
    rounds: u64,
    env: &mut Env,
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<ServeRun, String> {
    let s = env
        .served
        .as_mut()
        .ok_or("serving workload without a server")?;
    let swaps_before = s.engine().stats().reloads.get();
    let client = if workload == "point_binary_reload" {
        env.bin.as_mut()
    } else {
        env.json.as_mut()
    };
    let c = client.ok_or("no connection for the workload's encoding")?;
    let run = serve::run_rounds(s, c, &env.mix, workload, rounds, tr, &mut report.tally);
    let swaps = s.engine().stats().reloads.get() - swaps_before;
    let prefix = if workload == "point_binary_reload" {
        "bin"
    } else {
        "json"
    };
    for (method, want) in serve::requests_per_method(workload, rounds) {
        let got = run.per_method.get(method).copied().unwrap_or(0);
        report
            .work
            .push((format!("{prefix}.requests.{method}"), got.to_string()));
        expect_work(report, &format!("{workload} {method} requests"), got, want);
    }
    if workload == "point_binary_reload" {
        report
            .work
            .push(("reloads".into(), run.reloads.to_string()));
        report.work.push(("swaps".into(), swaps.to_string()));
        expect_work(report, "swaps", swaps, run.reloads);
    } else {
        for (kind, bytes) in &run.bulk_bytes {
            report
                .work
                .push((format!("json.reply_bytes.{kind}"), bytes.to_string()));
        }
    }
    Ok(run)
}

fn expect_work(report: &mut Report, what: &str, got: u64, want: u64) {
    if got != want {
        report.faults.push(format!(
            "work volume: {what} = {got}, the workload defines {want}"
        ));
    }
}

/// The per-layer ledger of a traced run, by metric name.
type Ledger = BTreeMap<String, f64>;

/// The traced run: every workload's ops with spans (the named workload
/// at its full count, the others at a share), then the ledger.
fn traced(args: &Args, env: &mut Env, report: &mut Report, out: &Path) -> Result<(), String> {
    let mut tr = Tracer::new(true);
    let mut ledger = Ledger::new();
    compose_ledger(args, env, report, &mut tr, &mut ledger)?;
    binary_ledger(args, env, report, &mut tr, &mut ledger)?;
    json_ledger(args, env, report, &mut tr, &mut ledger)?;
    let path = out.join(format!("spans-{}.tsv", args.workload));
    tr.write(&path, SPAN_FILE_OPS)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!(
        "perfbench: {} spans written to {}",
        tr.spans.len(),
        path.display()
    );
    report.metrics = LAYERS
        .iter()
        .map(|&(name, unit)| (name, unit, ledger.get(name).copied().unwrap_or(f64::NAN)))
        .collect();
    Ok(())
}

/// compose_build: the toolchain stages of a cold build + load.
fn compose_ledger(
    args: &Args,
    env: &mut Env,
    report: &mut Report,
    tr: &mut Tracer,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let run = compose::compose_build(
        &env.lib,
        ledger_rounds(args, "compose_build"),
        args.seed,
        tr,
        &mut report.tally,
    )?;
    let stages = [
        "repo.resolve",
        "elab.elaborate",
        "runtime.build",
        "runtime.encode",
        "runtime.decode",
        "codegen.compile",
    ];
    for name in stages {
        ledger.insert(format!("{name}_ms"), median(&ms_per_op(tr, name, false)));
    }
    // The elaboration phases and the XML parse, from the program's spans.
    ledger.insert(
        "xml.parse_ms".into(),
        median(&ms_per_op(tr, "repo.parse", true)),
    );
    for name in [
        "elab.inherit",
        "elab.expand",
        "elab.analyze",
        "elab.synthesize",
    ] {
        ledger.insert(format!("{name}_ms"), median(&ms_per_op(tr, name, true)));
    }
    ledger.insert("repo.docs".into(), env.built.docs as f64);
    ledger.insert("elab.elements".into(), env.built.model.len() as f64);
    ledger.insert("runtime.xpdlrt_bytes".into(), run.xpdlrt_bytes as f64);
    ledger.insert(
        "codegen.strings".into(),
        env.built.getters.string_count() as f64,
    );
    let op = median(&run.op_ms);
    ledger.insert("traced.compose_build.op_ms".into(), op);
    let staged: f64 = stages.iter().map(|n| ledger[&format!("{n}_ms")]).sum();
    reconcile(report, ledger, "compose_build", op, staged);
    Ok(())
}

/// point_binary_reload: the binary read path and the reload path.
fn binary_ledger(
    args: &Args,
    env: &mut Env,
    report: &mut Report,
    tr: &mut Tracer,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let rounds = ledger_rounds(args, "point_binary_reload");
    let before = serve::metrics(
        env.served.as_mut().ok_or("no server")?,
        env.bin.as_mut().ok_or("no binary connection")?,
    )?;
    let run = run_serving("point_binary_reload", rounds, env, tr, report)?;
    let s = env.served.as_mut().ok_or("no server")?;
    let after = serve::metrics(s, env.bin.as_mut().ok_or("no binary connection")?)?;
    ledger.insert(
        "bin.serve.method_us".into(),
        serve::method_mean_us(&before, &after)?,
    );
    serve::replay(s.engine(), &env.mix, "point_binary_reload", &run, false, tr);

    let reads = run.reads(false);
    let per = |name: &str| per_op_us(tr, name, &reads);
    let (enc, wire, dec, handle) = (
        per("client.bin_encode"),
        per("wire.bin"),
        per("client.bin_decode"),
        per("bin.engine.handle"),
    );
    let transport: Vec<f64> = (0..reads.len()).map(|i| wire[i] - handle[i]).collect();
    let path = [
        ("client.bin_encode_us", &enc),
        ("bin.serve.transport_us", &transport),
        ("bin.engine.handle_us", &handle),
        ("client.bin_decode_us", &dec),
    ];
    for (name, values) in path {
        ledger.insert(name.into(), median(values));
    }
    ledger.insert(
        "wire.bin_request_bytes".into(),
        run.request_bytes.0 as f64 / run.request_bytes.1 as f64,
    );
    ledger.insert(
        "wire.bin_response_bytes".into(),
        run.mean_reply_bytes(false),
    );
    ledger.insert("reload.write_ms".into(), median(&run.reload_write_ms));
    ledger.insert("reload.rpc_ms".into(), median(&run.reload_rpc_ms));
    for name in ["reload.decode", "reload.fingerprint", "reload.compile"] {
        ledger.insert(format!("{name}_ms"), median(&ms_per_op(tr, name, false)));
    }
    ledger.insert("reload.swaps".into(), run.reloads as f64);
    ledger.insert(
        "traced.point_binary_reload.op_ms".into(),
        median(&run.latencies()),
    );
    let read_op = median(
        &reads
            .iter()
            .map(|&i| run.ops[i].latency_ms)
            .collect::<Vec<_>>(),
    );
    let staged = path.iter().map(|(_, v)| median(v)).sum::<f64>() / 1e3;
    reconcile(report, ledger, "point_binary_reload", read_op, staged);
    Ok(())
}

/// bulk_json: point and bulk replies over JSON lines.
fn json_ledger(
    args: &Args,
    env: &mut Env,
    report: &mut Report,
    tr: &mut Tracer,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let run = run_serving(
        "bulk_json",
        ledger_rounds(args, "bulk_json"),
        env,
        tr,
        report,
    )?;
    let s = env.served.as_mut().ok_or("no server")?;
    serve::replay(s.engine(), &env.mix, "bulk_json", &run, true, tr);

    let (points, bulks) = (run.reads(false), run.reads(true));
    let per = |name: &str, ops: &[usize]| per_op_us(tr, name, ops);
    let (enc, wire, handle, senc) = (
        per("client.json_encode", &points),
        per("wire.json", &points),
        per("json.engine.handle", &points),
        per("engine.json_encode", &points),
    );
    let (dec_point, dec_bulk) = (
        per("client.json_decode", &points),
        per("client.json_decode", &bulks),
    );
    let transport: Vec<f64> = (0..points.len())
        .map(|i| wire[i] - handle[i] - senc[i])
        .collect();
    let path = [
        ("client.json_encode_us", &enc),
        ("json.serve.transport_us", &transport),
        ("json.engine.handle_us", &handle),
        ("engine.json_encode_us", &senc),
        ("client.json_decode_us.point", &dec_point),
    ];
    for (name, values) in path {
        ledger.insert(name.into(), median(values));
    }
    ledger.insert("client.json_decode_us.bulk".into(), median(&dec_bulk));
    let ns_per_byte = |dec: &[f64], ops: &[usize]| {
        let bytes: usize = ops.iter().map(|&i| run.ops[i].reply_bytes).sum();
        dec.iter().sum::<f64>() * 1e3 / bytes as f64
    };
    ledger.insert(
        "client.json_decode_ns_per_byte.point".into(),
        ns_per_byte(&dec_point, &points),
    );
    ledger.insert(
        "client.json_decode_ns_per_byte.bulk".into(),
        ns_per_byte(&dec_bulk, &bulks),
    );
    ledger.insert(
        "wire.json_reply_bytes.point".into(),
        run.mean_reply_bytes(false),
    );
    ledger.insert(
        "wire.json_reply_bytes.bulk".into(),
        run.mean_reply_bytes(true),
    );
    ledger.insert("traced.bulk_json.op_ms".into(), median(&run.latencies()));
    let point_op = median(
        &points
            .iter()
            .map(|&i| run.ops[i].latency_ms)
            .collect::<Vec<_>>(),
    );
    let staged = path.iter().map(|(_, v)| median(v)).sum::<f64>() / 1e3;
    reconcile(report, ledger, "bulk_json", point_op, staged);
    Ok(())
}

/// Record how far the stage medians along an op's blocking path fall
/// from the op median, and fault it beyond the tolerance.
fn reconcile(report: &mut Report, ledger: &mut Ledger, workload: &str, op_ms: f64, staged_ms: f64) {
    let pct = (op_ms - staged_ms).abs() / op_ms * 100.0;
    eprintln!("perfbench: reconcile {workload}: op {op_ms:.4} ms, stages {staged_ms:.4} ms, residual {pct:.2}%");
    ledger.insert(format!("recon.{workload}.residual_pct"), pct);
    if pct > RECON_TOLERANCE_PCT {
        report.faults.push(format!(
            "reconciliation {workload}: stage medians sum to {staged_ms:.4} ms, op median {op_ms:.4} ms ({pct:.1}% > {RECON_TOLERANCE_PCT}%)"
        ));
    }
}

/// Per-op totals in ms of the spans called `name`, one per op that has any.
fn ms_per_op(tr: &Tracer, name: &str, program: bool) -> Vec<f64> {
    tr.per_op(name, program)
        .into_values()
        .map(|ns| ns * 1e-6)
        .collect()
}

/// Per-op totals in µs of the benchmark's spans called `name`, for the
/// listed op ids in that order.
fn per_op_us(tr: &Tracer, name: &str, ops: &[usize]) -> Vec<f64> {
    let by_op = tr.per_op(name, false);
    ops.iter()
        .map(|&op| by_op.get(&(op as u64)).copied().unwrap_or(0.0) * 1e-3)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serve::Expect;
    use xpdl_core::diag::json::{self, JsonValue};
    use xpdl_serve::{Method, Reply};

    fn benchmark_json() -> JsonValue {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
    }

    fn names(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
        let obj = doc.as_object().expect("object");
        json::get(obj, key)
            .and_then(JsonValue::as_array)
            .expect("list")
            .iter()
            .map(|m| {
                let m = m.as_object().expect("metric object");
                let s = |k| {
                    json::get(m, k)
                        .and_then(JsonValue::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn ledger_matches_benchmark_json() {
        let doc = benchmark_json();
        let want: Vec<(String, String)> = LAYERS
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names(&doc, "per_layer"), want);
        let workloads: Vec<String> = names(&doc, "workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS.map(|w| w.0));
        let e2e: Vec<String> = names(&doc, "end_to_end").into_iter().map(|w| w.0).collect();
        assert_eq!(
            e2e,
            [
                "setup_s",
                "op_ms",
                "op_p90_ms",
                "ops_per_cpu_s",
                "peak_rss_mb"
            ]
        );
    }

    /// Set up against a real server, run one binary round with `sabotage`
    /// applied, and return the report.
    fn sabotaged_round(name: &str, sabotage: impl FnOnce(&mut Env)) -> Report {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(name);
        std::fs::create_dir_all(&dir).unwrap();
        let mut env = set_up(&dir, 7, true, false).unwrap();
        sabotage(&mut env);
        let mut report = Report::default();
        run_serving(
            "point_binary_reload",
            1,
            &mut env,
            &mut Tracer::new(false),
            &mut report,
        )
        .unwrap();
        env.tear_down();
        std::fs::remove_dir_all(&dir).unwrap();
        report
    }

    #[test]
    fn a_wrong_core_count_from_the_server_fails_each_such_op() {
        let report = sabotaged_round("test-cores", |env| {
            let wrong = env.lib.fleet.expected_cores() as u64 + 1;
            for p in env
                .mix
                .cycle
                .iter_mut()
                .filter(|p| matches!(p.method, Method::NumCores))
            {
                p.expect = Expect::Reply(Reply::Count(wrong));
            }
        });
        let per_method: BTreeMap<_, _> = serve::requests_per_method("point_binary_reload", 1)
            .into_iter()
            .collect();
        assert_eq!(report.tally.failed, per_method["num_cores"]);
        assert_eq!(report.tally.attempted, per_method.values().sum::<u64>());
        assert!(report.faults.is_empty(), "{:?}", report.faults);
    }

    #[test]
    fn a_stale_epoch_after_a_reload_fails_the_reload() {
        let report = sabotaged_round("test-epoch", |env| {
            env.served.as_mut().unwrap().live.epoch += 10
        });
        assert!(
            report.tally.errors[0].contains("reload after epoch"),
            "{:?}",
            report.tally.errors
        );
        assert!(
            report.tally.failed > 1,
            "later reads see the other variant and epoch too"
        );
    }

    #[test]
    fn args_fix_the_rounds() {
        let argv: Vec<String> = "--workload bulk_json --seed 3 --seconds 10 --trace 0"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&argv).unwrap();
        assert_eq!(
            (a.workload, a.rounds, a.seed, a.trace),
            ("bulk_json", 1_800, 3, false)
        );
        let bad: Vec<String> = ["--workload", "nope"].map(String::from).to_vec();
        assert!(parse_args(&bad).is_err());
    }
}
