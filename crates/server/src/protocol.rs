//! The wire protocol: experiment requests as JSON, their canonical keys,
//! and resolution into the harness's [`ExperimentSpec`].
//!
//! A `/run` request body:
//!
//! ```json
//! {
//!   "name": "table3",
//!   "scale": "test",
//!   "client": "tenant-a",
//!   "observe": false,
//!   "sample": {<every SampleParams field>},
//!   "workloads": [
//!     {"builtin": "compress"},
//!     {"name": "mine", "program": "<textual assembly>"}
//!   ],
//!   "cells": [
//!     {"workload": 0, "label": "2-bit BP", "scheme": "2-bit BP",
//!      "options": "proposed" | {<every DriverOptions field>} | null,
//!      "config": "r10000" | {<every MachineConfig field>}}
//!   ]
//! }
//! ```
//!
//! Options, configs and sampling parameters go through the harness's one
//! field list per struct ([`codec::Fields`]), the same list their cache
//! keys are built from; every field is required, a cell's `options` and
//! `config` keys included (`"options": null` runs the cell untransformed).
//! An options preset name is any of [`DriverOptions::presets`].
//!
//! The response body for a successful run is exactly the **stable** artifact
//! payload the bench binaries write with `--stable-json` — byte-identical,
//! because both sides render the same [`guardspec_harness::stable_json`]
//! value with the same writer.
//!
//! Two request hashes matter:
//!
//! * [`request_key`] — the in-flight dedup identity: a stable hash over the
//!   *resolved* request description (name, scale, observe, sampling
//!   parameters, every workload's program source, every cell's
//!   scheme/options/config).  Two concurrent
//!   clients posting semantically identical requests (whatever their JSON
//!   field order) produce one simulation job.
//! * [`cell_shard_hash`] — the sharding identity of one cell, computable by
//!   the client *without* running anything (it hashes request-level
//!   descriptors, not transformed program text, which only the server ever
//!   sees).  `gsc` routes each cell to shard `hash % M`.

use guardspec_core::DriverOptions;
use guardspec_harness::args::parse_scale;
use guardspec_harness::hash::StableHasher;
use guardspec_harness::key::{describe_config, describe_options, describe_sample, scale_tag};
use guardspec_harness::spec::{ablation_cells, three_scheme_cells, PAPER_WORKLOADS};
use guardspec_harness::{codec, Json};
use guardspec_harness::{CellSpec, ExperimentSpec};
use guardspec_predict::Scheme;
use guardspec_sim::{MachineConfig, SampleParams};
use guardspec_workloads::{extended_workloads, Scale, Workload};
use std::collections::BTreeSet;
use std::sync::Mutex;

/// One workload slot of a request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkloadReq {
    /// A named paper workload (`compress`, `espresso`, `xlisp`, `grep`,
    /// `ocean`), built at the request's scale with its golden results.
    Builtin(String),
    /// Ad-hoc textual assembly (no golden verification).
    Text { name: String, program: String },
}

impl WorkloadReq {
    /// Display name of the slot.
    pub fn name(&self) -> &str {
        match self {
            WorkloadReq::Builtin(n) => n,
            WorkloadReq::Text { name, .. } => name,
        }
    }

    /// The canonical source descriptor fed to both hashes.  Builtins hash
    /// by name (their text is a pure function of name + scale); ad-hoc
    /// programs hash by their full source.
    fn descriptor(&self) -> String {
        match self {
            WorkloadReq::Builtin(n) => format!("builtin:{n}"),
            WorkloadReq::Text { program, .. } => format!("text:{program}"),
        }
    }
}

/// One cell of a request.
#[derive(Clone, Debug)]
pub struct CellReq {
    /// Index into [`RunRequest::workloads`].
    pub workload: usize,
    pub label: String,
    pub scheme: Scheme,
    /// Transform options; `None` simulates the untransformed program.
    pub options: Option<DriverOptions>,
    pub config: MachineConfig,
}

/// A parsed `/run` request.
#[derive(Clone, Debug)]
pub struct RunRequest {
    /// Experiment name (the stable payload's `experiment` field).
    pub name: String,
    pub scale: Scale,
    /// Fairness identity for the admission queue (optional; the server
    /// falls back to the peer address).
    pub client: Option<String>,
    pub observe: bool,
    /// SMARTS-style interval sampling parameters; `None` runs the exact
    /// whole-trace simulation.  Sampled responses carry per-cell `sampling`
    /// estimate objects in the stable payload.
    pub sample: Option<SampleParams>,
    pub workloads: Vec<WorkloadReq>,
    pub cells: Vec<CellReq>,
}

// --- JSON encoding -------------------------------------------------------

/// Scheme from its stable label (the same string the tables print).
pub fn scheme_from_label(s: &str) -> Result<Scheme, String> {
    Scheme::ALL
        .into_iter()
        .find(|sch| sch.label() == s)
        .ok_or_else(|| format!("bad scheme {s:?} (want \"2-bit BP\"|\"Proposed\"|\"Perfect BP\")"))
}

/// Preset name → options, from [`DriverOptions::presets`].
pub fn options_preset(name: &str) -> Result<DriverOptions, String> {
    let presets = DriverOptions::presets();
    if let Some((_, opts)) = presets.iter().find(|(n, _)| *n == name) {
        return Ok(opts.clone());
    }
    let names: Vec<&str> = presets.iter().map(|(n, _)| *n).collect();
    Err(format!(
        "bad options preset {name:?} (want {})",
        names.join("|")
    ))
}

fn workload_to_json(w: &WorkloadReq) -> Json {
    match w {
        WorkloadReq::Builtin(n) => Json::obj(vec![("builtin", Json::str(n))]),
        WorkloadReq::Text { name, program } => Json::obj(vec![
            ("name", Json::str(name)),
            ("program", Json::str(program)),
        ]),
    }
}

fn workload_from_json(j: &Json) -> Result<WorkloadReq, String> {
    if let Some(n) = j.get("builtin").and_then(Json::as_str) {
        return Ok(WorkloadReq::Builtin(n.to_string()));
    }
    let name = j
        .get("name")
        .and_then(Json::as_str)
        .ok_or("workload wants \"builtin\" or \"name\"")?
        .to_string();
    let program = j
        .get("program")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("workload {name:?} wants a \"program\" string"))?
        .to_string();
    Ok(WorkloadReq::Text { name, program })
}

fn cell_to_json(c: &CellReq) -> Json {
    let mut fields = vec![
        ("workload", Json::U64(c.workload as u64)),
        ("label", Json::str(&c.label)),
        ("scheme", Json::str(c.scheme.label())),
    ];
    match &c.options {
        Some(o) => fields.push(("options", codec::fields_to_json(o))),
        None => fields.push(("options", Json::Null)),
    }
    fields.push(("config", codec::fields_to_json(&c.config)));
    Json::obj(fields)
}

fn cell_from_json(j: &Json, n_workloads: usize) -> Result<CellReq, String> {
    let workload = u(j, "workload")? as usize;
    if workload >= n_workloads {
        return Err(format!(
            "cell references workload {workload}, request has {n_workloads}"
        ));
    }
    let field = |k: &str| j.get(k).ok_or_else(|| format!("cell has no {k:?} field"));
    let options = match field("options")? {
        Json::Null => None,
        Json::Str(preset) => Some(options_preset(preset)?),
        o => Some(codec::fields_from_json(o)?),
    };
    let config = match field("config")? {
        Json::Str(preset) if preset == "r10000" => MachineConfig::r10000(),
        Json::Str(other) => return Err(format!("bad config preset {other:?} (want \"r10000\")")),
        c => codec::fields_from_json(c)?,
    };
    Ok(CellReq {
        workload,
        label: s(j, "label")?.to_string(),
        scheme: scheme_from_label(s(j, "scheme")?)?,
        options,
        config,
    })
}

/// Serialize a request (the body `gsc` posts).
pub fn request_to_json(r: &RunRequest) -> Json {
    let mut fields = vec![
        ("name", Json::str(&r.name)),
        ("scale", Json::str(scale_tag(r.scale))),
    ];
    if let Some(c) = &r.client {
        fields.push(("client", Json::str(c)));
    }
    if r.observe {
        fields.push(("observe", Json::Bool(true)));
    }
    if let Some(p) = &r.sample {
        fields.push(("sample", codec::fields_to_json(p)));
    }
    fields.push((
        "workloads",
        Json::Arr(r.workloads.iter().map(workload_to_json).collect()),
    ));
    fields.push((
        "cells",
        Json::Arr(r.cells.iter().map(cell_to_json).collect()),
    ));
    Json::obj(fields)
}

/// Parse and validate a request body.
pub fn request_from_json(j: &Json) -> Result<RunRequest, String> {
    let name = s(j, "name")?.to_string();
    let scale = parse_scale(s(j, "scale")?)?;
    let client = j.get("client").and_then(Json::as_str).map(str::to_string);
    let observe = j.get("observe").and_then(Json::as_bool).unwrap_or(false);
    let sample = match j.get("sample") {
        None | Some(Json::Null) => None,
        Some(obj) => Some(codec::fields_from_json::<SampleParams>(obj)?),
    };
    let workloads: Vec<WorkloadReq> = j
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("no workloads array")?
        .iter()
        .map(workload_from_json)
        .collect::<Result<_, _>>()?;
    if workloads.is_empty() {
        return Err("request has no workloads".to_string());
    }
    let cells = j
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or("no cells array")?
        .iter()
        .map(|c| cell_from_json(c, workloads.len()))
        .collect::<Result<_, _>>()?;
    Ok(RunRequest {
        name,
        scale,
        client,
        observe,
        sample,
        workloads,
        cells,
    })
}

// --- Canonical hashes ----------------------------------------------------

/// The in-flight dedup identity of a request: everything that determines
/// the response bytes, nothing that doesn't (`client` is fairness metadata,
/// not science, so it is excluded — two tenants asking the same question
/// share one job).
pub fn request_key(r: &RunRequest) -> String {
    let mut h = StableHasher::new();
    h.write_str("run-request");
    h.write_str(&r.name);
    h.write_str(scale_tag(r.scale));
    h.write_bool(r.observe);
    match &r.sample {
        Some(p) => h.write_str(&describe_sample(p)),
        None => h.write_str("no-sample"),
    };
    h.write_u64(r.workloads.len() as u64);
    for w in &r.workloads {
        h.write_str(w.name());
        h.write_str(&w.descriptor());
    }
    h.write_u64(r.cells.len() as u64);
    for c in &r.cells {
        h.write_u64(c.workload as u64);
        h.write_str(&c.label);
        h.write_str(c.scheme.label());
        match &c.options {
            Some(o) => h.write_str(&describe_options(o)),
            None => h.write_str("no-transform"),
        };
        h.write_str(&describe_config(&c.config));
    }
    format!("req-{}", h.finish_hex())
}

/// The disk-cache key of a request's finished response body (the stable
/// artifact JSON).  Derived 1:1 from [`request_key`] so it inherits its
/// identity contract; the distinct prefix keeps response blobs from ever
/// colliding with stage entries, and is what peers ask each other for
/// (`GET /cache/resp-<hex>`).
pub fn response_key(request_key: &str) -> String {
    format!(
        "resp-{}",
        request_key.strip_prefix("req-").unwrap_or(request_key)
    )
}

/// The shard identity of one cell, computable client-side: a stable hash
/// of the cell's full descriptor (workload source, scale, scheme, options,
/// config).  `gsc` sends cell `i` to shard `cell_shard_hash(..) % M`; a
/// daemon running `--shard N/M` accepts only cells whose hash lands on `N`.
pub fn cell_shard_hash(workload: &WorkloadReq, scale: Scale, cell: &CellReq) -> u64 {
    let mut h = StableHasher::new();
    h.write_str("cell-shard");
    h.write_str(&workload.descriptor());
    h.write_str(scale_tag(scale));
    h.write_str(cell.scheme.label());
    match &cell.options {
        Some(o) => h.write_str(&describe_options(o)),
        None => h.write_str("no-transform"),
    };
    h.write_str(&describe_config(&cell.config));
    // Truncate the 128-bit digest to its low 64 bits (hex tail).
    u64::from_str_radix(&h.finish_hex()[16..], 16).expect("32 hex chars")
}

// --- Resolution into an ExperimentSpec -----------------------------------

/// `Workload::name` is `&'static str`; ad-hoc names are leaked once and
/// interned so a long-running daemon serving the same request repeatedly
/// does not grow without bound.
fn intern(name: &str) -> &'static str {
    static POOL: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut pool = POOL.lock().unwrap();
    if let Some(existing) = pool.get(name) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    pool.insert(leaked);
    leaked
}

/// Resolve a request into the spec the harness runs.  Builtins are built at
/// the request scale (with golden results); ad-hoc programs are parsed and
/// validated, with no golden verification (empty `expected`).
pub fn to_spec(r: &RunRequest) -> Result<ExperimentSpec, String> {
    let mut workloads = Vec::with_capacity(r.workloads.len());
    for w in &r.workloads {
        match w {
            WorkloadReq::Builtin(name) => {
                // Workload is not Clone; build the set and pull the one out.
                // Builtin requests are resolved once per executed job (the
                // dedup layer shields repeats), so the rebuild is cheap
                // relative to the simulation it feeds.
                let mut all = extended_workloads(r.scale);
                let idx = all
                    .iter()
                    .position(|b| b.name == name)
                    .ok_or_else(|| format!("unknown builtin workload {name:?}"))?;
                workloads.push(all.swap_remove(idx));
            }
            WorkloadReq::Text { name, program } => {
                let prog = guardspec_ir::parse::parse_program(program, None)
                    .map_err(|e| format!("workload {name:?}: parse error: {e}"))?;
                let errs = guardspec_ir::validate::validate(&prog);
                if !errs.is_empty() {
                    return Err(format!("workload {name:?}: invalid program: {errs:?}"));
                }
                workloads.push(Workload {
                    name: intern(name),
                    description: "ad-hoc request program",
                    program: prog,
                    expected: Vec::new(),
                });
            }
        }
    }
    let cells = r
        .cells
        .iter()
        .map(|c| CellSpec {
            workload: c.workload,
            label: c.label.clone(),
            transform: c.options.clone(),
            scheme: c.scheme,
            cfg: c.config.clone(),
        })
        .collect();
    Ok(ExperimentSpec {
        name: r.name.clone(),
        scale: r.scale,
        workloads,
        cells,
    })
}

// --- Request builders (shared by gsc and tests) --------------------------

/// The Tables-3/4 three-scheme matrix — [`ExperimentSpec::three_schemes`]'s
/// cells, as a request.
pub fn three_schemes_request(name: &str, scale: Scale) -> RunRequest {
    paper_request(name, scale, three_scheme_cells(PAPER_WORKLOADS.len()))
}

/// The five-preset ablation matrix — [`ExperimentSpec::ablation`]'s cells,
/// as a request.
pub fn ablation_request(name: &str, scale: Scale) -> RunRequest {
    paper_request(name, scale, ablation_cells(PAPER_WORKLOADS.len()))
}

/// `cells` over the paper workloads, named as builtins: nothing is built
/// until a server resolves the request.
fn paper_request(name: &str, scale: Scale, cells: Vec<CellSpec>) -> RunRequest {
    RunRequest {
        name: name.to_string(),
        scale,
        client: None,
        observe: false,
        sample: None,
        workloads: PAPER_WORKLOADS
            .iter()
            .map(|n| WorkloadReq::Builtin(n.to_string()))
            .collect(),
        cells: cells
            .into_iter()
            .map(|c| CellReq {
                workload: c.workload,
                label: c.label,
                scheme: c.scheme,
                options: c.transform,
                config: c.cfg,
            })
            .collect(),
    }
}

// --- tiny JSON field helpers ---------------------------------------------

fn u(j: &Json, k: &str) -> Result<u64, String> {
    j.get(k)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("no integer field {k:?}"))
}

fn s<'a>(j: &'a Json, k: &str) -> Result<&'a str, String> {
    j.get(k)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("no string field {k:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cell naming its options and config by shorthand decodes to the
    /// same cell, and the same request key, as one spelling every field.
    #[test]
    fn shorthands_resolve_to_the_preset_table() {
        for (name, opts) in DriverOptions::presets() {
            let cell = |options: Json, config: Json| {
                let body = Json::obj(vec![
                    ("name", Json::str("x")),
                    ("scale", Json::str("test")),
                    (
                        "workloads",
                        Json::Arr(vec![Json::obj(vec![("builtin", Json::str("grep"))])]),
                    ),
                    (
                        "cells",
                        Json::Arr(vec![Json::obj(vec![
                            ("workload", Json::U64(0)),
                            ("label", Json::str(name)),
                            ("scheme", Json::str("Proposed")),
                            ("options", options),
                            ("config", config),
                        ])]),
                    ),
                ]);
                request_from_json(&body).unwrap()
            };
            let short = cell(Json::str(name), Json::str("r10000"));
            let long = cell(
                codec::fields_to_json(&opts),
                codec::fields_to_json(&MachineConfig::r10000()),
            );
            assert_eq!(
                short.cells[0].options.as_ref().map(describe_options),
                Some(describe_options(&opts)),
                "{name}"
            );
            assert_eq!(request_key(&short), request_key(&long), "{name}");
        }
    }

    #[test]
    fn request_roundtrip_and_key_stability() {
        let mut req = three_schemes_request("table3", Scale::Test);
        req.client = Some("tester".to_string());
        let text = request_to_json(&req).to_compact();
        let back = request_from_json(&guardspec_harness::json::parse(&text).unwrap()).unwrap();
        assert_eq!(request_key(&back), request_key(&req));
        assert_eq!(back.cells.len(), 12);
        // client identity is fairness metadata, not dedup identity.
        let mut other = req.clone();
        other.client = Some("someone-else".to_string());
        assert_eq!(request_key(&other), request_key(&req));
        // but the name, scale, observe flag and any cell all are.
        let mut m = req.clone();
        m.name = "renamed".to_string();
        assert_ne!(request_key(&m), request_key(&req));
        let mut m = req.clone();
        m.observe = true;
        assert_ne!(request_key(&m), request_key(&req));
        let mut m = req.clone();
        m.cells[3].config.rob_size += 1;
        assert_ne!(request_key(&m), request_key(&req));
    }

    #[test]
    fn sample_roundtrips_and_feeds_the_key() {
        let mut req = three_schemes_request("table3", Scale::Test);
        // Exact requests serialize without a `sample` field at all.
        let exact_text = request_to_json(&req).to_compact();
        assert!(!exact_text.contains("\"sample\""));
        let exact_key = request_key(&req);

        req.sample = Some(SampleParams {
            detail: 500,
            warmup: 700,
            interval: 9000,
        });
        let text = request_to_json(&req).to_compact();
        let back = request_from_json(&guardspec_harness::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.sample, req.sample);
        assert_eq!(request_key(&back), request_key(&req));
        // Sampled and exact requests never dedup to the same job, and each
        // parameter is part of the identity.
        assert_ne!(request_key(&req), exact_key);
        for bump in [
            |p: &mut SampleParams| p.detail += 1,
            |p: &mut SampleParams| p.warmup += 1,
            |p: &mut SampleParams| p.interval += 1,
        ] {
            let mut m = req.clone();
            bump(m.sample.as_mut().unwrap());
            assert_ne!(request_key(&m), request_key(&req));
        }
        // A sample object missing a field is rejected, never defaulted.
        let j = guardspec_harness::json::parse(
            r#"{"name":"x","scale":"test","sample":{"detail":100,"warmup":100},
                "workloads":[{"builtin":"grep"}],
                "cells":[{"workload":0,"label":"l","scheme":"2-bit BP",
                          "options":null,"config":"r10000"}]}"#,
        )
        .unwrap();
        assert!(request_from_json(&j).unwrap_err().contains("interval"));
    }

    /// `req` resolves to exactly `offline`: same workloads, same cells.
    fn assert_resolves_to(req: &RunRequest, offline: &ExperimentSpec) {
        let spec = to_spec(req).unwrap();
        assert_eq!(spec.name, offline.name);
        assert_eq!(spec.workloads.len(), offline.workloads.len());
        assert_eq!(spec.cells.len(), offline.cells.len());
        for (a, b) in spec.workloads.iter().zip(&offline.workloads) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.program.to_string(), b.program.to_string());
        }
        for (a, b) in spec.cells.iter().zip(&offline.cells) {
            assert_eq!(a.workload, b.workload);
            assert_eq!(a.label, b.label);
            assert_eq!(a.scheme, b.scheme);
            assert_eq!(
                a.transform.as_ref().map(describe_options),
                b.transform.as_ref().map(describe_options)
            );
            assert_eq!(describe_config(&a.cfg), describe_config(&b.cfg));
        }
    }

    #[test]
    fn resolved_spec_matches_the_offline_builder() {
        assert_resolves_to(
            &three_schemes_request("table3", Scale::Test),
            &ExperimentSpec::three_schemes("table3", Scale::Test),
        );
    }

    #[test]
    fn resolved_ablation_spec_matches_the_offline_builder() {
        assert_resolves_to(
            &ablation_request("ablation", Scale::Test),
            &ExperimentSpec::ablation("ablation", Scale::Test),
        );
    }

    /// The paper matrices' request keys, body bytes and one shard hash,
    /// as computed when protocol.rs still built the cells itself: cached
    /// responses keep hitting, and shards keep their cells, only while
    /// these hold.
    #[test]
    fn paper_requests_are_pinned() {
        use guardspec_harness::hash::hex_digest;
        for (req, key, body) in [
            (
                three_schemes_request("table3", Scale::Test),
                "b5e62280c2168c1d6d24eb6a2b0a0d73",
                "d85e8bfb3766e03c372bdd2f79bd315f",
            ),
            (
                three_schemes_request("table3", Scale::Small),
                "8bd373e7637860e55a7f0e1220f93e67",
                "eca710c5b264021618e32cae301fc16b",
            ),
            (
                ablation_request("ablation", Scale::Test),
                "44e80ae5d50b99c0ec81daa3d7363a56",
                "c1c7007d4f1c3f92e6786427bbad0df1",
            ),
            (
                ablation_request("ablation", Scale::Small),
                "80fdb0d635234946a4104546c9446ea8",
                "e8e1f11792d332074cbea086a89832b5",
            ),
        ] {
            assert_eq!(request_key(&req), format!("req-{key}"), "{}", req.name);
            let text = request_to_json(&req).to_compact();
            assert_eq!(hex_digest(&text), body, "{}", req.name);
        }
        let req = ablation_request("ablation", Scale::Test);
        assert_eq!(
            cell_shard_hash(&req.workloads[1], req.scale, &req.cells[7]),
            0x2c9b_2009_a86c_41c0
        );
    }

    #[test]
    fn shard_hash_varies_by_cell_not_by_client() {
        let req = three_schemes_request("t", Scale::Test);
        let h0 = cell_shard_hash(&req.workloads[0], req.scale, &req.cells[0]);
        let h0b = cell_shard_hash(&req.workloads[0], req.scale, &req.cells[0]);
        assert_eq!(h0, h0b, "stable across calls");
        let mut distinct = std::collections::BTreeSet::new();
        for c in &req.cells {
            distinct.insert(cell_shard_hash(&req.workloads[c.workload], req.scale, c));
        }
        assert!(
            distinct.len() > 6,
            "12 distinct cells should spread over many hashes, got {}",
            distinct.len()
        );
    }

    #[test]
    fn bad_requests_name_the_problem() {
        let parse =
            |t: &str| request_from_json(&guardspec_harness::json::parse(t).unwrap()).unwrap_err();
        assert!(parse("{\"scale\":\"test\"}").contains("name"));
        assert!(parse("{\"name\":\"x\",\"scale\":\"huge\"}").contains("bad --scale"));
        assert!(
            parse("{\"name\":\"x\",\"scale\":\"test\",\"workloads\":[],\"cells\":[]}")
                .contains("no workloads")
        );
        let bad_cell = "{\"name\":\"x\",\"scale\":\"test\",\
             \"workloads\":[{\"builtin\":\"grep\"}],\
             \"cells\":[{\"workload\":3,\"label\":\"l\",\"scheme\":\"Proposed\"}]}";
        assert!(parse(bad_cell).contains("references workload 3"));
        let with_cell = |workload: &str, cell: &str| {
            parse(&format!(
                "{{\"name\":\"x\",\"scale\":\"test\",\"workloads\":[{workload}],\
                 \"cells\":[{{\"workload\":0,\"label\":\"l\",\"scheme\":\"Proposed\",{cell}}}]}}"
            ))
        };
        // Ad-hoc programs travel as assembly text only.
        let bin = with_cell(
            r#"{"name":"mine","bin":"00000000"}"#,
            r#""options":null,"config":"r10000""#,
        );
        assert!(
            bin.contains("workload \"mine\"") && bin.contains("program"),
            "{bin}"
        );
        let grep = r#"{"builtin":"grep"}"#;
        let preset = with_cell(grep, r#""options":"everything","config":"r10000""#);
        assert!(
            preset.contains("baseline|speculation|guarded|conventional|proposed"),
            "{preset}"
        );
        assert!(with_cell(grep, r#""options":null,"config":"r12000""#).contains("r10000"));
        // Neither key has a default: a missing one is named, not filled in.
        let no_config = with_cell(grep, r#""options":null"#);
        assert!(no_config.contains("no \"config\" field"), "{no_config}");
        let no_options = with_cell(grep, r#""config":"r10000""#);
        assert!(no_options.contains("no \"options\" field"), "{no_options}");
    }
}
