//! The serving workloads: an in-process `xpdl-serve` server, one client
//! thread in a closed loop over one loopback connection, the fixed
//! request mixes, and the checker every reply goes through.

use crate::compose::{walk_kind, Built, ELEMENTS};
use crate::measure::{ms, Tally, Tracer};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xpdl_codegen::CompiledGetters;
use xpdl_fleetgen::rng::SplitMix64;
use xpdl_fleetgen::Fleet;
use xpdl_runtime::{format, RuntimeModel};
use xpdl_serve::codec::{self, StrDecoder, StrEncoder};
use xpdl_serve::protocol::NodeInfo;
use xpdl_serve::{
    parse_response, Engine, EngineOptions, Method, ModelSource, Reply, Request, Response, Server,
    ServerOptions,
};

/// Server pool workers: one, as the process runs on one CPU.
pub const WORKERS: usize = 1;
/// Root attribute whose value is the only difference between the two
/// served model variants.
pub const VARIANT_ATTR: &str = "bench_variant";
/// Distinct targets per parameterised read method; the point-read cycle
/// is `8 * TARGETS` requests long.
const TARGETS: usize = 4;
pub const POINT_CYCLE: usize = 8 * TARGETS;
/// point_binary_reload: point-read cycles between two reloads. A round is
/// one reload, one read of the variant attribute, then these cycles.
pub const BIN_CYCLES_PER_RELOAD: usize = 16;
/// bulk_json: bulk reads interleaved with each point-read cycle, by size
/// class, at fixed positions. These are the smallest shares that let the
/// bulk replies set the tail and the CPU rate: one large and one medium
/// reply (2.6% of the ops each) and four small ones (10.5%), so the 90th
/// percentile falls inside the small class with about 5% of the ops to
/// spare on each side (README.md, "Request mixes").
const BULK_SLOTS: [(usize, Class); 6] = [
    (3, Class::Small),
    (8, Class::Large),
    (13, Class::Small),
    (19, Class::Medium),
    (25, Class::Small),
    (31, Class::Small),
];
/// Ops in one bulk_json round: one point-read cycle plus the bulk slots.
pub const JSON_ROUND: usize = POINT_CYCLE + BULK_SLOTS.len();

/// Size classes of the replies, for the per-class ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Point,
    Small,
    Medium,
    Large,
}

impl Class {
    /// `elements_of_kind` kind per bulk class: a 1.6 KB, 7.9 KB and
    /// 11.3 KB JSON reply on the pinned fleet. The 64 KB `core` reply is
    /// left out: its decode time follows the host's speed phases far more
    /// than any other op (README.md, "Request mixes").
    fn kind(self) -> &'static str {
        match self {
            Class::Point => "",
            Class::Small => "node",
            Class::Medium => "cache",
            Class::Large => "inst",
        }
    }
}

/// What a correct reply looks like.
#[derive(Debug, Clone)]
pub enum Expect {
    /// Exactly this reply.
    Reply(Reply),
    /// `model_info` of the served variant at the current epoch.
    ModelInfo,
    /// `get_attr` of the variant attribute: the served variant's value.
    Variant,
}

/// One request of a mix and its expected answer.
#[derive(Debug, Clone)]
pub struct Probe {
    pub method: Method,
    pub expect: Expect,
    pub class: Class,
}

/// The served state the checker compares against.
#[derive(Debug, Clone)]
pub struct Live {
    pub epoch: u64,
    pub value: String,
    pub fingerprint: u64,
}

/// FNV-1a over bytes: the fingerprint a served model must report,
/// computed here apart from the program.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ *b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Check one reply against its probe and the served state.
pub fn check(probe: &Probe, id: u64, resp: &Response, live: &Live) -> Result<(), String> {
    let name = probe.method.name();
    if resp.id != id {
        return Err(format!("{name}: reply id {} for request {id}", resp.id));
    }
    let reply = resp
        .result
        .as_ref()
        .map_err(|e| format!("{name}: error {e}"))?;
    let ok = match (&probe.expect, reply) {
        (Expect::Reply(want), got) => want == got,
        (Expect::Variant, Reply::Attr(Some(v))) => *v == live.value,
        (
            Expect::ModelInfo,
            Reply::ModelInfo {
                epoch,
                nodes,
                root_kind,
                root_ident,
                fingerprint,
                ..
            },
        ) => {
            *epoch == live.epoch
                && *nodes == ELEMENTS as u64
                && root_kind == "system"
                && root_ident.as_deref() == Some(xpdl_fleetgen::SYSTEM_KEY)
                && *fingerprint == format!("{:016x}", live.fingerprint)
        }
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        let mut got = format!("{reply:?}");
        got.truncate(160);
        Err(format!("{name}: wrong reply {got}"))
    }
}

/// Check a `reload` reply: a swap to a strictly greater epoch.
pub fn check_reload(id: u64, resp: &Response, prev_epoch: u64) -> Result<u64, String> {
    if resp.id != id {
        return Err(format!("reload: reply id {} for request {id}", resp.id));
    }
    match &resp.result {
        Ok(Reply::Reloaded {
            epoch,
            changed: true,
        }) if *epoch > prev_epoch => Ok(*epoch),
        other => Err(format!("reload after epoch {prev_epoch}: {other:?}")),
    }
}

/// The requests of a run: the point-read cycle, one probe per bulk size
/// class, and the read of the variant attribute.
pub struct Mix {
    pub cycle: Vec<Probe>,
    pub bulk: Vec<Probe>,
    pub variant: Probe,
}

/// One step of a serving round.
pub enum Step<'m> {
    Reload,
    Read(&'m Probe),
}

impl Mix {
    /// One round of a serving workload, in order. point_binary_reload: a
    /// reload, the variant read, then [`BIN_CYCLES_PER_RELOAD`] point-read
    /// cycles. bulk_json: one point-read cycle with the bulk reads at
    /// their fixed slots.
    pub fn round(&self, workload: &str) -> Vec<Step<'_>> {
        if workload == "point_binary_reload" {
            let reads = self
                .cycle
                .iter()
                .cycle()
                .take(BIN_CYCLES_PER_RELOAD * self.cycle.len());
            [Step::Reload, Step::Read(&self.variant)]
                .into_iter()
                .chain(reads.map(Step::Read))
                .collect()
        } else {
            let mut points = self.cycle.iter();
            (0..JSON_ROUND)
                .map(|slot| match BULK_SLOTS.iter().find(|(at, _)| *at == slot) {
                    Some((_, class)) => Step::Read(
                        self.bulk
                            .iter()
                            .find(|p| p.class == *class)
                            .expect("one probe per class"),
                    ),
                    None => Step::Read(points.next().expect("the cycle covers the point slots")),
                })
                .collect()
        }
    }
}

/// The request mix, drawn from the model by the run seed; expected
/// answers come from the fleet plan and the model's tree walk.
pub fn mix(m: &RuntimeModel, fleet: &Fleet, seed: u64) -> Mix {
    let mut rng = SplitMix64::new(seed ^ 0x5e_12fe);
    // Named nodes `find` resolves to themselves, the root excluded (its
    // variant attribute differs between the served models).
    let unique: Vec<u32> = (1..m.len() as u32)
        .filter(|&i| {
            m.node_at(i)
                .and_then(|n| n.ident())
                .and_then(|id| m.find(id))
                .map(|f| f.index())
                == Some(i)
        })
        .collect();
    let with_attrs: Vec<u32> = unique
        .iter()
        .copied()
        .filter(|&i| m.node_at(i).is_some_and(|n| n.attrs().next().is_some()))
        .collect();
    let numeric: Vec<(u32, String)> = unique
        .iter()
        .flat_map(|&i| {
            let n = m.node_at(i).expect("index from the model");
            n.attrs()
                .filter(|(k, _)| n.number(k).is_some())
                .map(move |(k, _)| (i, k.to_string()))
                .collect::<Vec<_>>()
        })
        .collect();
    let mut pick = |len: usize| rng.range(0, len as u64 - 1) as usize;
    let point = |method, reply| Probe {
        method,
        expect: Expect::Reply(reply),
        class: Class::Point,
    };
    let mut cycle = Vec::with_capacity(POINT_CYCLE);
    for _ in 0..TARGETS {
        let n = m
            .node_at(unique[pick(unique.len())])
            .expect("index from the model");
        let ident = n.ident().expect("named").to_string();
        let info = NodeInfo {
            kind: n.kind().to_string(),
            ident: Some(ident.clone()),
            type_ref: n.type_ref().map(str::to_string),
            attrs: n
                .attrs()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        };
        cycle.push(point(Method::Find { ident }, Reply::Node(Some(info))));

        let n = m
            .node_at(with_attrs[pick(with_attrs.len())])
            .expect("index from the model");
        let attrs: Vec<(&str, &str)> = n.attrs().collect();
        let (k, v) = attrs[pick(attrs.len())];
        let ident = n.ident().expect("named").to_string();
        cycle.push(point(
            Method::GetAttr {
                ident,
                attr: k.to_string(),
            },
            Reply::Attr(Some(v.to_string())),
        ));

        let (i, attr) = numeric[pick(numeric.len())].clone();
        let n = m.node_at(i).expect("index from the model");
        let want = n.number(&attr);
        cycle.push(point(
            Method::GetNumber {
                ident: n.ident().expect("named").to_string(),
                attr,
            },
            Reply::Number(want),
        ));

        cycle.push(point(
            Method::NumCores,
            Reply::Count(fleet.expected_cores() as u64),
        ));
        cycle.push(point(
            Method::NumCudaDevices,
            Reply::Count(m.num_cuda_devices() as u64),
        ));
        cycle.push(point(
            Method::TotalStaticPower,
            Reply::Power(m.total_static_power_w()),
        ));
        let prefix = format!("fg_sw_{}", pick(fleet.families.len()));
        let has = m.has_installed(|t| t.starts_with(prefix.as_str()));
        cycle.push(point(Method::HasInstalled { prefix }, Reply::Flag(has)));
        cycle.push(Probe {
            method: Method::ModelInfo,
            expect: Expect::ModelInfo,
            class: Class::Point,
        });
    }
    let bulk = [Class::Small, Class::Medium, Class::Large]
        .into_iter()
        .map(|class| {
            let (idents, count) = walk_kind(m, class.kind());
            Probe {
                method: Method::ElementsOfKind {
                    kind: class.kind().to_string(),
                },
                expect: Expect::Reply(Reply::Idents { idents, count }),
                class,
            }
        })
        .collect();
    let variant = Probe {
        method: Method::GetAttr {
            ident: xpdl_fleetgen::SYSTEM_KEY.to_string(),
            attr: VARIANT_ATTR.to_string(),
        },
        expect: Expect::Variant,
        class: Class::Point,
    };
    Mix {
        cycle,
        bulk,
        variant,
    }
}

/// One served model variant: its value of [`VARIANT_ATTR`] and its bytes.
pub struct Variant {
    pub value: String,
    pub bytes: Vec<u8>,
}

/// The two same-size variants of a build, differing in one attribute.
pub fn variants(b: &Built, seed: u64) -> Result<[Variant; 2], String> {
    let mut rng = SplitMix64::new(seed ^ 0x7a_41a7);
    let make = |value: String| {
        let mut root = b.elaborated.root.clone();
        root.set_attr(VARIANT_ATTR, value.as_str());
        let bytes = format::encode(&RuntimeModel::from_element(&root)).to_vec();
        Variant { value, bytes }
    };
    let a = make(format!("a{:016x}", rng.next_u64()));
    let b = make(format!("b{:016x}", rng.next_u64()));
    if a.bytes.len() != b.bytes.len() {
        return Err(format!(
            "variants differ in size: {} vs {}",
            a.bytes.len(),
            b.bytes.len()
        ));
    }
    Ok([a, b])
}

/// A binary-encoded (`hello`-negotiated) or JSON-lines connection.
pub struct Client {
    binary: bool,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    enc: StrEncoder,
    dec: StrDecoder,
    line: String,
}

/// Sizes of one exchange on the wire.
pub struct Exchange {
    pub resp: Response,
    pub req_bytes: usize,
    pub resp_bytes: usize,
}

impl Client {
    pub fn connect(addr: &str, binary: bool) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("{addr}: connect: {e}"))?;
        let timeout = Some(Duration::from_secs(30));
        stream
            .set_nodelay(true)
            .and_then(|_| stream.set_read_timeout(timeout))
            .and_then(|_| stream.set_write_timeout(timeout))
            .map_err(|e| format!("{addr}: socket options: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("{addr}: clone: {e}"))?;
        let mut c = Client {
            binary: false,
            writer,
            reader: BufReader::new(stream),
            enc: StrEncoder::new(),
            dec: StrDecoder::new(),
            line: String::new(),
        };
        if binary {
            let ack = c
                .call(&codec::client_hello(0), &mut Tracer::new(false), 0, None)?
                .resp;
            match ack.result {
                Ok(Reply::Hello { encoding }) if encoding == codec::BINARY => c.binary = true,
                other => return Err(format!("{addr}: binary not negotiated: {other:?}")),
            }
        }
        Ok(c)
    }

    /// One round trip, with encode, wire and decode spans under `parent`.
    pub fn call(
        &mut self,
        req: &Request,
        tr: &mut Tracer,
        op: u64,
        parent: Option<usize>,
    ) -> Result<Exchange, String> {
        if self.binary {
            let frame = tr.span("client.bin_encode", op, parent, || {
                codec::encode_request(req, &mut self.enc)
            });
            let (writer, reader) = (&mut self.writer, &mut self.reader);
            let body = tr
                .span("wire.bin", op, parent, || {
                    writer.write_all(&frame)?;
                    codec::read_frame(reader, codec::MAX_RESPONSE_FRAME)
                })
                .map_err(|e| format!("binary round trip: {e}"))?
                .ok_or("connection closed")?;
            let resp = tr
                .span("client.bin_decode", op, parent, || {
                    codec::decode_response(&body, &mut self.dec)
                })
                .map_err(|e| format!("binary decode: {e}"))?;
            Ok(Exchange {
                resp,
                req_bytes: frame.len(),
                resp_bytes: body.len() + 4,
            })
        } else {
            let mut line = tr.span("client.json_encode", op, parent, || req.to_json());
            line.push('\n');
            let (writer, reader, buf) = (&mut self.writer, &mut self.reader, &mut self.line);
            buf.clear();
            let n = tr
                .span("wire.json", op, parent, || {
                    writer.write_all(line.as_bytes())?;
                    reader.read_line(buf)
                })
                .map_err(|e| format!("json round trip: {e}"))?;
            if n == 0 {
                return Err("connection closed".into());
            }
            let resp = tr
                .span("client.json_decode", op, parent, || {
                    parse_response(buf.trim_end())
                })
                .map_err(|e| format!("json decode: {e}"))?;
            Ok(Exchange {
                resp,
                req_bytes: line.len(),
                resp_bytes: n,
            })
        }
    }
}

/// Request ids start here and keep ten digits for the whole run, so a
/// JSON reply's size does not change with its id.
const FIRST_ID: u64 = 1_000_000_000;

/// The in-process server and what the client knows about what it serves.
pub struct Served {
    pub server: Server,
    pub addr: String,
    pub path: PathBuf,
    pub variants: [Variant; 2],
    pub current: usize,
    pub live: Live,
    pub next_id: u64,
}

impl Served {
    /// Write variant 0 to `dir/model.xpdlrt` and serve it with
    /// [`WORKERS`] pool threads.
    pub fn start(dir: &Path, variants: [Variant; 2]) -> Result<Served, String> {
        let path = dir.join("model.xpdlrt");
        std::fs::write(&path, &variants[0].bytes)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        let source = ModelSource::File(path.clone());
        let options = EngineOptions {
            allow_debug: false,
            allow_shutdown: false,
        };
        let engine = Arc::new(Engine::new(source, options).map_err(|e| format!("engine: {e}"))?);
        let opts = ServerOptions {
            workers: WORKERS,
            max_inflight: 64,
            deadline: None,
            ..Default::default()
        };
        let server =
            Server::start(engine, "127.0.0.1:0", opts).map_err(|e| format!("server: {e}"))?;
        let addr = server.local_addr().to_string();
        let live = Live {
            epoch: 0,
            value: variants[0].value.clone(),
            fingerprint: fnv1a(&variants[0].bytes),
        };
        Ok(Served {
            server,
            addr,
            path,
            variants,
            current: 0,
            live,
            next_id: FIRST_ID,
        })
    }

    pub fn engine(&self) -> &Arc<Engine> {
        self.server.engine()
    }

    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Stop the server and wait for its threads.
    pub fn stop(self) {
        self.server.shutdown();
        self.server.join();
    }
}

/// One timed op of a serving loop.
pub struct OpRecord {
    pub latency_ms: f64,
    /// `None` for a reload.
    pub class: Option<Class>,
    pub reply_bytes: usize,
}

/// Per-op records of a serving loop.
#[derive(Default)]
pub struct ServeRun {
    pub ops: Vec<OpRecord>,
    /// Requests sent per method name.
    pub per_method: BTreeMap<&'static str, u64>,
    /// Reply size of each bulk kind; every reply of a kind must match.
    pub bulk_bytes: BTreeMap<&'static str, usize>,
    /// Total request bytes and requests.
    pub request_bytes: (u64, u64),
    pub reloads: u64,
    pub reload_write_ms: Vec<f64>,
    pub reload_rpc_ms: Vec<f64>,
}

impl ServeRun {
    /// Latency (ms) of every op.
    pub fn latencies(&self) -> Vec<f64> {
        self.ops.iter().map(|o| o.latency_ms).collect()
    }

    /// Op ids of the point reads, or of the bulk reads.
    pub fn reads(&self, bulk: bool) -> Vec<usize> {
        (0..self.ops.len())
            .filter(|&i| {
                self.ops[i]
                    .class
                    .is_some_and(|c| (c != Class::Point) == bulk)
            })
            .collect()
    }

    /// Mean reply bytes of the point reads, or of the bulk reads.
    pub fn mean_reply_bytes(&self, bulk: bool) -> f64 {
        let reads = self.reads(bulk);
        reads
            .iter()
            .map(|&i| self.ops[i].reply_bytes)
            .sum::<usize>() as f64
            / reads.len() as f64
    }
}

/// Requests each method must receive in `rounds` rounds of a serving
/// workload: the work volume its definition fixes.
pub fn requests_per_method(workload: &str, rounds: u64) -> Vec<(&'static str, u64)> {
    let per_cycle = TARGETS as u64;
    let (cycles, bulk, reloads) = if workload == "point_binary_reload" {
        (BIN_CYCLES_PER_RELOAD as u64, 0, 1)
    } else {
        (1, 1, 0)
    };
    let count = |class| BULK_SLOTS.iter().filter(|(_, c)| *c == class).count() as u64;
    let mut out = vec![
        (
            "elements_of_kind",
            rounds * bulk * (count(Class::Small) + count(Class::Medium) + count(Class::Large)),
        ),
        ("find", rounds * cycles * per_cycle),
        ("get_attr", rounds * (cycles * per_cycle + reloads)),
        ("get_number", rounds * cycles * per_cycle),
        ("has_installed", rounds * cycles * per_cycle),
        ("model_info", rounds * cycles * per_cycle),
        ("num_cores", rounds * cycles * per_cycle),
        ("num_cuda_devices", rounds * cycles * per_cycle),
        ("reload", rounds * reloads),
        ("total_static_power", rounds * cycles * per_cycle),
    ];
    out.retain(|(_, n)| *n > 0);
    out
}

/// One read op: send, check, record.
fn read_op(
    s: &mut Served,
    c: &mut Client,
    probe: &Probe,
    tr: &mut Tracer,
    run: &mut ServeRun,
    tally: &mut Tally,
) {
    let id = s.id();
    let req = Request::new(id, probe.method.clone());
    let op = run.ops.len() as u64;
    let start = Instant::now();
    let root = tr.open(
        if c.binary {
            "bin.read.op"
        } else {
            "json.read.op"
        },
        op,
        start,
    );
    let ex = c.call(&req, tr, op, root);
    let dur = start.elapsed();
    tr.close(root, dur);
    let reply_bytes = ex.as_ref().map_or(0, |ex| ex.resp_bytes);
    run.ops.push(OpRecord {
        latency_ms: ms(dur),
        class: Some(probe.class),
        reply_bytes,
    });
    *run.per_method.entry(req.method.name()).or_default() += 1;
    let outcome = ex.and_then(|ex| {
        run.request_bytes.0 += ex.req_bytes as u64;
        run.request_bytes.1 += 1;
        if probe.class != Class::Point {
            let size = *run
                .bulk_bytes
                .entry(probe.class.kind())
                .or_insert(ex.resp_bytes);
            if size != ex.resp_bytes {
                return Err(format!(
                    "{} reply is {} bytes, earlier {size}",
                    probe.class.kind(),
                    ex.resp_bytes
                ));
            }
        }
        check(probe, id, &ex.resp, &s.live)
    });
    tally.settle(outcome);
}

/// One reload op: atomically replace the served file with the other
/// variant, then `reload`; the reply must swap to a greater epoch.
fn reload_op(
    s: &mut Served,
    c: &mut Client,
    tr: &mut Tracer,
    run: &mut ServeRun,
    tally: &mut Tally,
) {
    let next = 1 - s.current;
    let id = s.id();
    let req = Request::new(id, Method::Reload);
    let op = run.ops.len() as u64;
    let tmp = s.path.with_extension("xpdlrt.next");
    let start = Instant::now();
    let root = tr.open("reload.op", op, start);
    let written = tr.span("reload.write", op, root, || {
        std::fs::write(&tmp, &s.variants[next].bytes).and_then(|_| std::fs::rename(&tmp, &s.path))
    });
    let written_at = start.elapsed();
    let ex = written
        .map_err(|e| format!("replace model file: {e}"))
        .and_then(|_| c.call(&req, tr, op, root));
    let dur = start.elapsed();
    tr.close(root, dur);
    run.ops.push(OpRecord {
        latency_ms: ms(dur),
        class: None,
        reply_bytes: 0,
    });
    run.reload_write_ms.push(ms(written_at));
    run.reload_rpc_ms.push(ms(dur - written_at));
    run.reloads += 1;
    *run.per_method.entry("reload").or_default() += 1;
    let outcome = ex
        .and_then(|ex| check_reload(id, &ex.resp, s.live.epoch))
        .map(|epoch| {
            s.current = next;
            s.live = Live {
                epoch,
                value: s.variants[next].value.clone(),
                fingerprint: fnv1a(&s.variants[next].bytes),
            };
        });
    if tr.is_on() {
        // The reload path's stages, re-run in-process on the new file.
        let path = s.path.clone();
        if let Ok(m) = tr.span("reload.decode", op, None, || format::load_file(&path)) {
            tr.span("reload.fingerprint", op, None, || {
                xpdl_serve::snapshot::fingerprint_model(&m)
            });
            tr.span("reload.compile", op, None, || CompiledGetters::compile(&m));
        }
    }
    tally.settle(outcome);
}

/// Run `rounds` rounds of a serving workload, checking every reply.
pub fn run_rounds(
    s: &mut Served,
    c: &mut Client,
    mix: &Mix,
    workload: &str,
    rounds: u64,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> ServeRun {
    let mut run = ServeRun::default();
    let round = mix.round(workload);
    for _ in 0..rounds {
        for step in &round {
            match step {
                Step::Reload => reload_op(s, c, tr, &mut run, tally),
                Step::Read(probe) => read_op(s, c, probe, tr, &mut run, tally),
            }
        }
    }
    run
}

/// The traced run's in-process replay: `Engine::handle` (and, for JSON,
/// `Response::to_json`) on each read of `run`, in order, as spans under
/// the read's op id.
pub fn replay(
    engine: &Engine,
    mix: &Mix,
    workload: &str,
    run: &ServeRun,
    json: bool,
    tr: &mut Tracer,
) {
    let handle = if json {
        "json.engine.handle"
    } else {
        "bin.engine.handle"
    };
    let round = mix.round(workload);
    let reads = round.iter().filter_map(|step| match step {
        Step::Read(p) => Some(*p),
        Step::Reload => None,
    });
    let read_ops = (0..run.ops.len() as u64).filter(|&op| run.ops[op as usize].class.is_some());
    for (op, probe) in read_ops.zip(reads.cycle()) {
        let req = Request::new(op, probe.method.clone());
        let resp = tr.span(handle, op, None, || engine.handle(&req));
        if json {
            tr.span("engine.json_encode", op, None, || resp.to_json());
        }
    }
}

/// Mean server-side handler time (µs) of the point-read methods between
/// two `metrics` snapshots, from the server's own histograms.
pub fn method_mean_us(before: &Reply, after: &Reply) -> Result<f64, String> {
    let (Reply::Metrics(a), Reply::Metrics(b)) = (before, after) else {
        return Err("metrics reply expected".into());
    };
    let (mut sum, mut count) = (0u64, 0u64);
    for m in [
        "find",
        "get_attr",
        "get_number",
        "num_cores",
        "num_cuda_devices",
        "total_static_power",
        "has_installed",
        "model_info",
    ] {
        let name = format!("serve.method.{m}.time_us");
        let (Some(x), y) = (b.histograms.get(&name), a.histograms.get(&name)) else {
            continue;
        };
        sum += x.sum - y.map_or(0, |y| y.sum);
        count += x.count - y.map_or(0, |y| y.count);
    }
    if count == 0 {
        return Err("no point-read method in the server histograms".into());
    }
    Ok(sum as f64 / count as f64)
}

/// Fetch the server's `metrics` reply over `c`.
pub fn metrics(s: &mut Served, c: &mut Client) -> Result<Reply, String> {
    let id = s.id();
    let ex = c.call(
        &Request::new(id, Method::Metrics),
        &mut Tracer::new(false),
        0,
        None,
    )?;
    ex.resp.result.map_err(|e| format!("metrics: {e}"))
}

/// Warm a connection: one pass of every probe.
pub fn warm_up(s: &mut Served, c: &mut Client, mix: &Mix) -> Result<(), String> {
    let mut tally = Tally::default();
    let mut run = ServeRun::default();
    let mut tr = Tracer::new(false);
    for probe in mix.cycle.iter().chain(&mix.bulk).chain([&mix.variant]) {
        read_op(s, c, probe, &mut tr, &mut run, &mut tally);
    }
    match tally.errors.first() {
        Some(e) => Err(format!("warm-up: {e}")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpdl_serve::ServeError;

    fn live() -> Live {
        Live {
            epoch: 3,
            value: "a0123".into(),
            fingerprint: 0xabc,
        }
    }

    fn count_probe(n: u64) -> Probe {
        Probe {
            method: Method::NumCores,
            expect: Expect::Reply(Reply::Count(n)),
            class: Class::Point,
        }
    }

    #[test]
    fn a_core_count_off_by_one_fails_the_op() {
        let p = count_probe(2234);
        let mut t = Tally::default();
        t.settle(check(&p, 7, &Response::ok(7, Reply::Count(2234)), &live()));
        t.settle(check(&p, 7, &Response::ok(7, Reply::Count(2235)), &live()));
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert!(
            t.errors[0].contains("num_cores: wrong reply Count(2235)"),
            "{:?}",
            t.errors
        );
    }

    #[test]
    fn error_replies_and_foreign_ids_fail() {
        let p = count_probe(1);
        let err = Response::err(7, ServeError::new("S421", "deadline"));
        assert!(check(&p, 7, &err, &live()).is_err());
        assert!(check(&p, 7, &Response::ok(8, Reply::Count(1)), &live()).is_err());
    }

    #[test]
    fn a_stale_epoch_after_a_reload_fails() {
        let reloaded = |epoch, changed| Response::ok(5, Reply::Reloaded { epoch, changed });
        assert_eq!(check_reload(5, &reloaded(4, true), 3), Ok(4));
        assert!(check_reload(5, &reloaded(3, true), 3).is_err());
        assert!(check_reload(5, &reloaded(4, false), 3).is_err());
        let info = |epoch| {
            Response::ok(
                9,
                Reply::ModelInfo {
                    epoch,
                    nodes: ELEMENTS as u64,
                    root_kind: "system".into(),
                    root_ident: Some(xpdl_fleetgen::SYSTEM_KEY.into()),
                    source: "file".into(),
                    fingerprint: format!("{:016x}", 0xabc),
                },
            )
        };
        let p = Probe {
            method: Method::ModelInfo,
            expect: Expect::ModelInfo,
            class: Class::Point,
        };
        assert_eq!(check(&p, 9, &info(3), &live()), Ok(()));
        assert!(check(&p, 9, &info(2), &live()).is_err());
    }

    #[test]
    fn the_previous_variant_value_fails() {
        let p = Probe {
            method: Method::GetAttr {
                ident: "fg_sys".into(),
                attr: VARIANT_ATTR.into(),
            },
            expect: Expect::Variant,
            class: Class::Point,
        };
        assert_eq!(
            check(
                &p,
                1,
                &Response::ok(1, Reply::Attr(Some("a0123".into()))),
                &live()
            ),
            Ok(())
        );
        assert!(check(
            &p,
            1,
            &Response::ok(1, Reply::Attr(Some("b9999".into()))),
            &live()
        )
        .is_err());
    }

    #[test]
    fn a_bulk_reply_missing_an_ident_fails() {
        let want = Reply::Idents {
            idents: vec!["n0".into(), "n1".into()],
            count: 2,
        };
        let p = Probe {
            method: Method::ElementsOfKind {
                kind: "node".into(),
            },
            expect: Expect::Reply(want.clone()),
            class: Class::Small,
        };
        assert_eq!(check(&p, 1, &Response::ok(1, want), &live()), Ok(()));
        let short = Reply::Idents {
            idents: vec!["n0".into()],
            count: 2,
        };
        assert!(check(&p, 1, &Response::ok(1, short), &live()).is_err());
    }

    #[test]
    fn request_counts_follow_the_rounds() {
        let bin: BTreeMap<_, _> = requests_per_method("point_binary_reload", 3)
            .into_iter()
            .collect();
        assert_eq!(bin["reload"], 3);
        assert_eq!(
            bin["get_attr"],
            3 * (BIN_CYCLES_PER_RELOAD as u64 * TARGETS as u64 + 1)
        );
        assert!(!bin.contains_key("elements_of_kind"));
        let json: BTreeMap<_, _> = requests_per_method("bulk_json", 2).into_iter().collect();
        assert_eq!(json["elements_of_kind"], 2 * BULK_SLOTS.len() as u64);
        assert_eq!(json.values().sum::<u64>(), 2 * JSON_ROUND as u64);
    }
}
