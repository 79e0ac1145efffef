//! The pinned fleet library and the cold build + load op
//! (`xpdlc build` then `xpdl_init`), with the checks that hold its
//! outputs to the fleetgen plan and to the model's own tree walk.

use crate::measure::{ms, thread_cpu_s, Tally, Tracer};
use std::path::{Path, PathBuf};
use std::time::Instant;
use xpdl_codegen::CompiledGetters;
use xpdl_core::ElementKind;
use xpdl_elab::Elaborated;
use xpdl_fleetgen::rng::SplitMix64;
use xpdl_fleetgen::{Fleet, FleetShape, SYSTEM_KEY};
use xpdl_repo::{DirStore, Repository};
use xpdl_runtime::{format, RuntimeModel};

/// The fleet every workload runs on. Its seed is pinned: fleetgen's seed
/// changes the element count of this shape by up to 1.3x (10,276 to
/// 13,639 over seeds 1-42), so a run-seeded fleet would make the work
/// volume depend on the seed. The run seed picks the queried targets.
pub const FLEET_SEED: u64 = 42;
pub const FLEET_SHAPE: &str = "nodes=200,depth=6,chain=8,width=6";
/// Work-volume pins of that fleet.
pub const FLEET_CHECKSUM: u64 = 0x8102_0398_8b45_4085;
pub const DOCS: usize = 35;
pub const ELEMENTS: usize = 10_276;

/// The generated fleet and the directory its documents were written to.
pub struct Library {
    pub fleet: Fleet,
    pub dir: PathBuf,
}

/// Generate the pinned fleet and write it as a descriptor library.
pub fn write_library(dir: &Path) -> Result<Library, String> {
    let shape = FleetShape::parse(FLEET_SHAPE)?;
    let fleet = xpdl_fleetgen::generate(FLEET_SEED, &shape);
    let written = fleet
        .write_dir(dir)
        .map_err(|e| format!("write library {}: {e}", dir.display()))?;
    if fleet.checksum() != FLEET_CHECKSUM || written != DOCS {
        return Err(format!(
            "fleet drifted: checksum {:016x} docs {written}, pinned {FLEET_CHECKSUM:016x} docs {DOCS}",
            fleet.checksum()
        ));
    }
    Ok(Library {
        fleet,
        dir: dir.to_path_buf(),
    })
}

/// Everything one cold build + load produces.
pub struct Built {
    pub docs: usize,
    pub elaborated: Elaborated,
    /// The model as `xpdl_init` sees it: decoded from `bytes`.
    pub model: RuntimeModel,
    pub bytes: Vec<u8>,
    pub getters: CompiledGetters,
}

/// One cold build + load: a fresh repository over the on-disk library
/// resolves the system, it is elaborated, built into a runtime model,
/// encoded, decoded and compiled into getters.
pub fn build(lib: &Path, tr: &mut Tracer, op: u64, parent: Option<usize>) -> Result<Built, String> {
    let repo = Repository::new().with_store(DirStore::new(lib));
    let set = tr
        .span("repo.resolve", op, parent, || {
            repo.resolve_recursive(SYSTEM_KEY)
        })
        .map_err(|e| format!("resolve: {e}"))?;
    let elaborated = tr
        .span("elab.elaborate", op, parent, || xpdl_elab::elaborate(&set))
        .map_err(|e| format!("elaborate: {e}"))?;
    let built = tr.span("runtime.build", op, parent, || {
        RuntimeModel::from_element(&elaborated.root)
    });
    let encoded = tr.span("runtime.encode", op, parent, || format::encode(&built));
    let bytes = encoded.to_vec();
    let model = tr
        .span("runtime.decode", op, parent, || format::decode(&bytes))
        .map_err(|e| format!("decode: {e}"))?;
    let getters = tr.span("codegen.compile", op, parent, || {
        CompiledGetters::compile(&model)
    });
    Ok(Built {
        docs: set.len(),
        elaborated,
        model,
        bytes,
        getters,
    })
}

/// Hold a build to the fleet plan: document and element counts, core,
/// node and device totals, each family's per-node values, a clean
/// elaboration, and byte-identical re-encoding of the decoded model.
pub fn check_build(b: &Built, fleet: &Fleet) -> Result<(), String> {
    expect_eq("docs", b.docs, DOCS)?;
    expect_eq("elements", b.model.len(), ELEMENTS)?;
    if !b.elaborated.is_clean() {
        return Err(format!(
            "elaboration not clean: {:?}",
            b.elaborated.diagnostics.first()
        ));
    }
    let el = &b.elaborated;
    expect_eq(
        "cores",
        el.count_kind(ElementKind::Core),
        fleet.expected_cores(),
    )?;
    expect_eq(
        "nodes",
        el.count_kind(ElementKind::Node),
        fleet.expected_nodes(),
    )?;
    expect_eq(
        "devices",
        el.count_kind(ElementKind::Device),
        fleet.expected_devices(),
    )?;
    expect_eq("num_cores", b.model.num_cores(), fleet.expected_cores())?;
    for fam in fleet.families.iter().filter(|f| f.node_count > 0) {
        let ident = format!("f{}n0", fam.index);
        let node = b
            .model
            .find(&ident)
            .ok_or_else(|| format!("{ident} missing"))?;
        let below = node.descendants();
        let count = |kind: &str| below.iter().filter(|n| n.kind() == kind).count();
        let units = if fam.has_device {
            fleet.device_units
        } else {
            0
        };
        expect_eq(
            &format!("{ident} cores"),
            count("core"),
            fam.cores_per_cpu + units,
        )?;
        expect_eq(
            &format!("{ident} devices"),
            count("device"),
            usize::from(fam.has_device),
        )?;
        let mem = node.child_of_kind("memory").and_then(|m| m.attr("size"));
        expect_eq(
            &format!("{ident} memory"),
            mem,
            Some(fam.mem_gb.to_string().as_str()),
        )?;
    }
    if format::encode(&b.model).as_ref() != b.bytes.as_slice() {
        return Err("decode(encode(m)) does not re-encode to the same bytes".into());
    }
    Ok(())
}

/// Every compiled-getter answer for the named nodes `nodes` (indices)
/// and every aggregate must equal the runtime model's tree walk.
pub fn check_getters(g: &CompiledGetters, m: &RuntimeModel, nodes: &[u32]) -> Result<(), String> {
    for &i in nodes {
        let n = m
            .node_at(i)
            .ok_or_else(|| format!("node {i} out of range"))?;
        let Some(ident) = n.ident() else { continue };
        let first = m
            .find(ident)
            .ok_or_else(|| format!("walk cannot find {ident}"))?;
        expect_eq(&format!("find {ident}"), g.find(ident), Some(first.index()))?;
        expect_eq(
            &format!("kind of {ident}"),
            g.node_kind(first.index()),
            first.kind(),
        )?;
        expect_eq(
            &format!("type of {ident}"),
            g.node_type_ref(first.index()),
            first.type_ref(),
        )?;
        for (k, v) in first.attrs() {
            expect_eq(&format!("{ident}.{k}"), g.get_attr(ident, k), Some(v))?;
            let (got, want) = (g.get_number(ident, k), first.number(k));
            if got.map(f64::to_bits) != want.map(f64::to_bits) {
                return Err(format!(
                    "number {ident}.{k}: compiled {got:?}, walk {want:?}"
                ));
            }
        }
    }
    expect_eq("num_cores", g.num_cores(), m.num_cores() as u64)?;
    expect_eq(
        "num_cuda_devices",
        g.num_cuda_devices(),
        m.num_cuda_devices() as u64,
    )?;
    let (got, want) = (g.total_static_power_w(), m.total_static_power_w());
    if (got - want).abs() > 1e-9 * want.abs().max(1.0) {
        return Err(format!("total_static_power: compiled {got}, walk {want}"));
    }
    for kind in ["core", "node", "cache", "device", "installed"] {
        let (idents, count) = walk_kind(m, kind);
        let (got, got_count) = g.elements_of_kind(kind);
        if got != idents.iter().map(String::as_str).collect::<Vec<_>>() || got_count != count {
            return Err(format!(
                "elements_of_kind {kind}: compiled differs from the walk"
            ));
        }
    }
    expect_eq(
        "has_installed",
        g.has_installed(|t| t.starts_with("fg_sw_")),
        m.has_installed(|t| t.starts_with("fg_sw_")),
    )
}

/// Named idents (document order) and total count of one kind, by walk.
pub fn walk_kind(m: &RuntimeModel, kind: &str) -> (Vec<String>, u64) {
    let mut idents = Vec::new();
    let mut count = 0;
    for n in m.nodes_of_kind(kind) {
        count += 1;
        idents.extend(n.ident().map(str::to_string));
    }
    (idents, count)
}

/// Indices of every named node.
pub fn named_nodes(m: &RuntimeModel) -> Vec<u32> {
    (0..m.len() as u32)
        .filter(|&i| m.node_at(i).is_some_and(|n| n.ident().is_some()))
        .collect()
}

fn expect_eq<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, expected {want:?}"))
    }
}

/// Getter checks per build op sample this many named nodes.
const SAMPLE: usize = 24;

/// Latencies of the compose_build ops, in ms, the `.xpdlrt` size, and
/// the CPU time the benchmark's own checks of the builds took.
pub struct ComposeRun {
    pub op_ms: Vec<f64>,
    pub xpdlrt_bytes: usize,
    pub check_cpu_s: f64,
}

/// The compose_build loop: `ops` cold builds + loads, each checked.
pub fn compose_build(
    lib: &Library,
    ops: u64,
    seed: u64,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<ComposeRun, String> {
    let mut rng = SplitMix64::new(seed ^ 0xc0_4d05e);
    let mut run = ComposeRun {
        op_ms: Vec::with_capacity(ops as usize),
        xpdlrt_bytes: 0,
        check_cpu_s: 0.0,
    };
    let mut named: Vec<u32> = Vec::new();
    for op in 0..ops {
        xpdl_obs::trace::set_enabled(tr.is_on());
        let start = Instant::now();
        let root = tr.open("compose_build.op", op, start);
        let built = build(&lib.dir, tr, op, root);
        let dur = start.elapsed();
        xpdl_obs::trace::set_enabled(false);
        tr.close(root, dur);
        tr.adopt_program_spans(op, root);
        run.op_ms.push(ms(dur));
        // The build is dropped after the checks, outside their CPU time:
        // freeing its trees is part of the program's work.
        let outcome = built.and_then(|b| {
            let cpu = thread_cpu_s();
            let checked = (|| {
                if named.is_empty() {
                    named = named_nodes(&b.model);
                    run.xpdlrt_bytes = b.bytes.len();
                }
                expect_eq("xpdlrt bytes", b.bytes.len(), run.xpdlrt_bytes)?;
                check_build(&b, &lib.fleet)?;
                let sample: Vec<u32> = (0..SAMPLE)
                    .map(|_| named[rng.range(0, named.len() as u64 - 1) as usize])
                    .collect();
                check_getters(&b.getters, &b.model, &sample)
            })();
            run.check_cpu_s += thread_cpu_s() - cpu;
            checked
        });
        tally.settle(outcome);
    }
    if run.xpdlrt_bytes == 0 {
        return Err("no build succeeded".into());
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_are_held_to_the_plan() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-compose");
        let lib = write_library(&dir).unwrap();
        let mut b = build(&lib.dir, &mut Tracer::new(false), 0, None).unwrap();
        assert_eq!(check_build(&b, &lib.fleet), Ok(()));
        assert_eq!(
            check_getters(&b.getters, &b.model, &named_nodes(&b.model)),
            Ok(())
        );

        let mut plan = lib.fleet.clone();
        plan.families[0].cores_per_cpu += 1;
        let err = check_build(&b, &plan).unwrap_err();
        assert!(err.starts_with("cores: got 2234"), "{err}");
        plan = lib.fleet.clone();
        plan.families[0].mem_gb *= 2;
        let err = check_build(&b, &plan).unwrap_err();
        assert!(err.contains("f0n0 memory"), "{err}");

        let last = b.bytes.len() - 1;
        b.bytes[last] ^= 1;
        assert!(check_build(&b, &lib.fleet)
            .unwrap_err()
            .contains("re-encode"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn getters_are_held_to_the_walk() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-getters");
        let lib = write_library(&dir).unwrap();
        let b = build(&lib.dir, &mut Tracer::new(false), 0, None).unwrap();
        // Getters compiled from another model disagree with this walk.
        let mut root = b.elaborated.root.clone();
        root.children.truncate(1);
        let other = CompiledGetters::compile(&RuntimeModel::from_element(&root));
        assert!(check_getters(&other, &b.model, &named_nodes(&b.model)).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
