//! JSON encodings for cached stage outputs.
//!
//! * [`Profile`] — counters plus per-site branch-outcome bit vectors; packed
//!   words are hex strings so full-range `u64` bit patterns survive exactly.
//! * [`SimStats`] — via the `field_list`/`set_field` hooks on the stats
//!   struct itself, so a field added upstream shows up here automatically.
//! * [`SimEntry`] — one simulation's cache entry: bare stats, or stats
//!   wrapped with the cycle accounting and/or sampling estimate the run
//!   attached.
//! * [`ReportSummary`] — the transform-report counts the tables print
//!   (full per-branch decision lists are cheap to recompute and are *not*
//!   cached).
//! * Transformed programs — never as text.  A transform entry is
//!   `{digest, report}`: the digest of the printed program, which keys
//!   its sim entries, and its [`ReportSummary`].  A warm hit parses no IR;
//!   a cell that misses its sim entry rebuilds the program from the cached
//!   profile (the runner writes and reads these entries).
//! * [`DriverOptions`], [`MachineConfig`] and [`SampleParams`] — each
//!   through its one field list ([`Fields`]), which the cache-key text
//!   ([`crate::key`]) and `gsd`'s `/run` protocol also walk.
//!
//! Decoders return `Err` on any shape mismatch; callers treat that as a
//! cache miss and recompute, so a stale or corrupt entry can never poison a
//! run.

use crate::json::Json;
use guardspec_core::{Decision, DriverOptions, FeedbackParams, TransformReport};
use guardspec_interp::profile::BranchProfile;
use guardspec_interp::{BitVec, Profile};
use guardspec_ir::{BlockId, FuncId, InsnRef};
use guardspec_sim::{
    CycleAccounting, CycleBucket, Latencies, MachineConfig, SampleParams, SampleSummary, SimStats,
    SiteCounters,
};

/// One branch decision of the Figure-6 driver, in cache/artifact form.
///
/// Floats are stored *pre-formatted* (the exact strings `Decision::log_line`
/// prints) so the JSON round-trip is byte-exact, `Eq` stays derivable, and a
/// warm cache hit reproduces the decision log byte-for-byte.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DecisionSummary {
    pub func: u32,
    pub block: u32,
    pub idx: u32,
    pub backward: bool,
    pub executed: u64,
    /// `{:.4}`-formatted taken rate.
    pub taken_rate: String,
    /// [`guardspec_core::BranchBehavior`] tag, e.g. `monotonic(rate=…)`.
    pub behavior: String,
    /// `{:.2}`-formatted estimated benefit, or `-` when no gate ran.
    pub benefit: String,
    /// `{:.2}`-formatted estimated cost, or `-` when no gate ran.
    pub cost: String,
    /// [`guardspec_core::Action`] tag, e.g. `split-branch(likelies=3)`.
    pub action: String,
    pub reason: String,
}

impl From<&Decision> for DecisionSummary {
    fn from(d: &Decision) -> DecisionSummary {
        let (benefit, cost) = d
            .cost
            .map(|c| (format!("{:.2}", c.benefit), format!("{:.2}", c.cost)))
            .unwrap_or_else(|| ("-".to_string(), "-".to_string()));
        DecisionSummary {
            func: d.func.0,
            block: d.site.block.0,
            idx: d.site.idx,
            backward: d.backward,
            executed: d.executed,
            taken_rate: format!("{:.4}", d.taken_rate),
            behavior: d.behavior.tag(),
            benefit,
            cost,
            action: d.action.tag(),
            reason: d.reason().to_string(),
        }
    }
}

impl DecisionSummary {
    /// The same deterministic line [`Decision::log_line`] prints — warm
    /// (cached) and cold runs emit identical logs.
    pub fn log_line(&self) -> String {
        format!(
            "func={} block={} idx={} dir={} executed={} taken_rate={} behavior={} benefit={} cost={} action={} reason={}",
            self.func,
            self.block,
            self.idx,
            if self.backward { "back" } else { "fwd" },
            self.executed,
            self.taken_rate,
            self.behavior,
            self.benefit,
            self.cost,
            self.action,
            self.reason,
        )
    }
}

/// The per-transform counts reported in tables plus the full Figure-6
/// decision log (a cache-friendly subset of [`TransformReport`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReportSummary {
    pub likelies: usize,
    pub ifconversions: usize,
    pub splits: usize,
    pub speculated_ops: usize,
    pub guarded_ops: usize,
    pub split_likelies: usize,
    /// One entry per loop branch the driver visited, in visit order.
    pub decisions: Vec<DecisionSummary>,
}

impl From<&TransformReport> for ReportSummary {
    fn from(r: &TransformReport) -> ReportSummary {
        ReportSummary {
            likelies: r.likelies,
            ifconversions: r.ifconversions,
            splits: r.splits,
            speculated_ops: r.speculated_ops,
            guarded_ops: r.guarded_ops,
            split_likelies: r.split_likelies,
            decisions: r.decisions.iter().map(DecisionSummary::from).collect(),
        }
    }
}

fn get_u64(j: &Json, key: &str) -> Result<u64, String> {
    j.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing/invalid field {key}"))
}

fn get_usize(j: &Json, key: &str) -> Result<usize, String> {
    Ok(get_u64(j, key)? as usize)
}

fn get_str(j: &Json, key: &str) -> Result<String, String> {
    j.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing/invalid field {key}"))
}

fn get_bool(j: &Json, key: &str) -> Result<bool, String> {
    j.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| format!("missing/invalid field {key}"))
}

fn decision_to_json(d: &DecisionSummary) -> Json {
    Json::obj(vec![
        ("func", Json::U64(d.func as u64)),
        ("block", Json::U64(d.block as u64)),
        ("idx", Json::U64(d.idx as u64)),
        ("backward", Json::Bool(d.backward)),
        ("executed", Json::U64(d.executed)),
        ("taken_rate", Json::str(&d.taken_rate)),
        ("behavior", Json::str(&d.behavior)),
        ("benefit", Json::str(&d.benefit)),
        ("cost", Json::str(&d.cost)),
        ("action", Json::str(&d.action)),
        ("reason", Json::str(&d.reason)),
    ])
}

fn decision_from_json(j: &Json) -> Result<DecisionSummary, String> {
    Ok(DecisionSummary {
        func: get_u64(j, "func")? as u32,
        block: get_u64(j, "block")? as u32,
        idx: get_u64(j, "idx")? as u32,
        backward: get_bool(j, "backward")?,
        executed: get_u64(j, "executed")?,
        taken_rate: get_str(j, "taken_rate")?,
        behavior: get_str(j, "behavior")?,
        benefit: get_str(j, "benefit")?,
        cost: get_str(j, "cost")?,
        action: get_str(j, "action")?,
        reason: get_str(j, "reason")?,
    })
}

pub fn report_to_json(r: &ReportSummary) -> Json {
    Json::obj(vec![
        ("likelies", Json::U64(r.likelies as u64)),
        ("ifconversions", Json::U64(r.ifconversions as u64)),
        ("splits", Json::U64(r.splits as u64)),
        ("speculated_ops", Json::U64(r.speculated_ops as u64)),
        ("guarded_ops", Json::U64(r.guarded_ops as u64)),
        ("split_likelies", Json::U64(r.split_likelies as u64)),
        (
            "decisions",
            Json::Arr(r.decisions.iter().map(decision_to_json).collect()),
        ),
    ])
}

pub fn report_from_json(j: &Json) -> Result<ReportSummary, String> {
    // Entries predating the decision log lack "decisions"; the error turns
    // them into benign cache misses that recompute with the log attached.
    let decisions = j
        .get("decisions")
        .and_then(Json::as_arr)
        .ok_or("report: missing decisions")?
        .iter()
        .map(decision_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ReportSummary {
        likelies: get_usize(j, "likelies")?,
        ifconversions: get_usize(j, "ifconversions")?,
        splits: get_usize(j, "splits")?,
        speculated_ops: get_usize(j, "speculated_ops")?,
        guarded_ops: get_usize(j, "guarded_ops")?,
        split_likelies: get_usize(j, "split_likelies")?,
        decisions,
    })
}

/// Cycle accounting as JSON: buckets by name (exhaustive), site count, and
/// the sparse list of sites with any activity.
pub fn accounting_to_json(a: &CycleAccounting) -> Json {
    let buckets = CycleBucket::ALL
        .into_iter()
        .map(|b| (b.name(), Json::U64(a.bucket(b))))
        .collect();
    let sites = a
        .nonzero_sites()
        .map(|(id, s)| {
            Json::obj(vec![
                ("id", Json::U64(id as u64)),
                ("executions", Json::U64(s.executions)),
                ("mispredicts", Json::U64(s.mispredicts)),
                ("likely_mispredicts", Json::U64(s.likely_mispredicts)),
                ("recovery_cycles", Json::U64(s.recovery_cycles)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("buckets", Json::obj(buckets)),
        ("num_sites", Json::U64(a.num_sites() as u64)),
        ("sites", Json::Arr(sites)),
    ])
}

pub fn accounting_from_json(j: &Json) -> Result<CycleAccounting, String> {
    let bj = j.get("buckets").ok_or("accounting: missing buckets")?;
    let Json::Obj(pairs) = bj else {
        return Err("accounting: buckets not an object".to_string());
    };
    if pairs.len() != CycleBucket::COUNT {
        return Err(format!(
            "accounting: {} buckets, expected {}",
            pairs.len(),
            CycleBucket::COUNT
        ));
    }
    let mut buckets = [0u64; CycleBucket::COUNT];
    for (k, v) in pairs {
        let b = CycleBucket::from_name(k).ok_or_else(|| format!("accounting: bad bucket {k}"))?;
        buckets[b.index()] = v.as_u64().ok_or("accounting: bad bucket value")?;
    }
    let num_sites = get_usize(j, "num_sites")?;
    let mut nonzero = Vec::new();
    for s in j
        .get("sites")
        .and_then(Json::as_arr)
        .ok_or("accounting: missing sites")?
    {
        let id = get_u64(s, "id")? as u32;
        if id as usize >= num_sites {
            return Err("accounting: site id out of range".to_string());
        }
        nonzero.push((
            id,
            SiteCounters {
                executions: get_u64(s, "executions")?,
                mispredicts: get_u64(s, "mispredicts")?,
                likely_mispredicts: get_u64(s, "likely_mispredicts")?,
                recovery_cycles: get_u64(s, "recovery_cycles")?,
            },
        ));
    }
    Ok(CycleAccounting::from_parts(buckets, num_sites, nonzero))
}

/// Sampled-run estimate as JSON.  The float fields (mean IPC and its CI
/// half-width) are stored as `f64` **bit patterns** so the cache
/// round-trip is exact: a warm hit reproduces the cold run's stable
/// artifact byte-for-byte.
pub fn sample_to_json(s: &SampleSummary) -> Json {
    Json::obj(vec![
        ("windows", Json::U64(s.windows)),
        ("detail", Json::U64(s.detail)),
        ("warmup", Json::U64(s.warmup)),
        ("interval", Json::U64(s.interval)),
        ("measured_entries", Json::U64(s.measured_entries)),
        ("total_entries", Json::U64(s.total_entries)),
        (
            "ipc_mean_bits",
            Json::str(format!("{:016x}", s.ipc_mean.to_bits())),
        ),
        (
            "ipc_ci95_bits",
            Json::str(format!("{:016x}", s.ipc_ci95.to_bits())),
        ),
        ("est_cycles", Json::U64(s.est_cycles)),
    ])
}

fn get_f64_bits(j: &Json, key: &str) -> Result<f64, String> {
    j.get(key)
        .and_then(Json::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .map(f64::from_bits)
        .ok_or_else(|| format!("missing/invalid field {key}"))
}

pub fn sample_from_json(j: &Json) -> Result<SampleSummary, String> {
    Ok(SampleSummary {
        windows: get_u64(j, "windows")?,
        detail: get_u64(j, "detail")?,
        warmup: get_u64(j, "warmup")?,
        interval: get_u64(j, "interval")?,
        measured_entries: get_u64(j, "measured_entries")?,
        total_entries: get_u64(j, "total_entries")?,
        ipc_mean: get_f64_bits(j, "ipc_mean_bits")?,
        ipc_ci95: get_f64_bits(j, "ipc_ci95_bits")?,
        est_cycles: get_u64(j, "est_cycles")?,
    })
}

/// One field of a [`Fields`] struct: a typed reference through which the
/// key text reads it, [`fields_to_json`] encodes it and [`fields_from_json`]
/// decodes it.
pub enum Field<'a> {
    F64(&'a mut f64),
    Usize(&'a mut usize),
    U64(&'a mut u64),
    Bool(&'a mut bool),
    /// A fixed-length array (`queue_size`, `fu_count`).
    Array(&'a mut [usize]),
    /// A cache's `(total bytes, line bytes, ways)`.
    Triple(&'a mut (usize, usize, usize)),
}

/// A struct whose every field is part of an experiment's identity.
/// [`Fields::fields`] lists each field once, nested structs flattened, in
/// key order; the key text, the JSON encoder and the JSON decoder are all
/// derived from that one list.  Each implementation destructures its
/// struct without `..`, so a field added upstream is a compile error here
/// rather than two experiments sharing one cache key.
pub trait Fields: Clone + Default {
    fn fields(&mut self) -> Vec<(&'static str, Field<'_>)>;
}

impl Fields for DriverOptions {
    fn fields(&mut self) -> Vec<(&'static str, Field<'_>)> {
        let DriverOptions {
            feedback,
            enable_likely,
            enable_ifconvert,
            enable_split,
            enable_speculation,
            max_arm_len,
            max_speculate_ops,
            allow_speculative_loads,
            max_likelies_per_site,
            mispredict_penalty,
        } = self;
        let FeedbackParams {
            likely_threshold,
            convert_threshold,
            monotonic_toggle_max,
            seg_window,
            seg_bias,
            max_segments,
            min_segment_frac,
            max_period,
            period_agreement,
        } = feedback;
        vec![
            ("likely_threshold", Field::F64(likely_threshold)),
            ("convert_threshold", Field::F64(convert_threshold)),
            ("monotonic_toggle_max", Field::F64(monotonic_toggle_max)),
            ("seg_window", Field::Usize(seg_window)),
            ("seg_bias", Field::F64(seg_bias)),
            ("max_segments", Field::Usize(max_segments)),
            ("min_segment_frac", Field::F64(min_segment_frac)),
            ("max_period", Field::Usize(max_period)),
            ("period_agreement", Field::F64(period_agreement)),
            ("enable_likely", Field::Bool(enable_likely)),
            ("enable_ifconvert", Field::Bool(enable_ifconvert)),
            ("enable_split", Field::Bool(enable_split)),
            ("enable_speculation", Field::Bool(enable_speculation)),
            ("max_arm_len", Field::Usize(max_arm_len)),
            ("max_speculate_ops", Field::Usize(max_speculate_ops)),
            (
                "allow_speculative_loads",
                Field::Bool(allow_speculative_loads),
            ),
            ("max_likelies_per_site", Field::Usize(max_likelies_per_site)),
            ("mispredict_penalty", Field::F64(mispredict_penalty)),
        ]
    }
}

impl Fields for MachineConfig {
    fn fields(&mut self) -> Vec<(&'static str, Field<'_>)> {
        let MachineConfig {
            fetch_width,
            commit_width,
            rob_size,
            queue_size,
            fu_count,
            max_inflight_branches,
            mispredict_recovery,
            frontend_depth,
            latencies,
            bht_entries,
            btb_sets,
            icache,
            dcache,
        } = self;
        let Latencies {
            alu,
            ldst,
            sft,
            fp_add,
            fp_mul,
            fp_div,
            cache_miss_penalty,
        } = latencies;
        vec![
            ("fetch_width", Field::Usize(fetch_width)),
            ("commit_width", Field::Usize(commit_width)),
            ("rob_size", Field::Usize(rob_size)),
            ("queue_size", Field::Array(queue_size)),
            ("fu_count", Field::Array(fu_count)),
            ("max_inflight_branches", Field::Usize(max_inflight_branches)),
            ("mispredict_recovery", Field::U64(mispredict_recovery)),
            ("frontend_depth", Field::U64(frontend_depth)),
            ("alu", Field::U64(alu)),
            ("ldst", Field::U64(ldst)),
            ("sft", Field::U64(sft)),
            ("fp_add", Field::U64(fp_add)),
            ("fp_mul", Field::U64(fp_mul)),
            ("fp_div", Field::U64(fp_div)),
            ("cache_miss_penalty", Field::U64(cache_miss_penalty)),
            ("bht_entries", Field::Usize(bht_entries)),
            ("btb_sets", Field::Usize(btb_sets)),
            ("icache", Field::Triple(icache)),
            ("dcache", Field::Triple(dcache)),
        ]
    }
}

impl Fields for SampleParams {
    fn fields(&mut self) -> Vec<(&'static str, Field<'_>)> {
        let SampleParams {
            detail,
            warmup,
            interval,
        } = self;
        vec![
            ("detail", Field::U64(detail)),
            ("warmup", Field::U64(warmup)),
            ("interval", Field::U64(interval)),
        ]
    }
}

/// Every field of `v` as one JSON object, in key order.
pub fn fields_to_json<T: Fields>(v: &T) -> Json {
    let mut v = v.clone();
    let usz = |x: usize| Json::U64(x as u64);
    let pairs = v.fields().into_iter().map(|(name, field)| {
        let value = match field {
            Field::F64(x) => Json::F64(*x),
            Field::Usize(x) => usz(*x),
            Field::U64(x) => Json::U64(*x),
            Field::Bool(x) => Json::Bool(*x),
            Field::Array(xs) => Json::Arr(xs.iter().map(|&x| usz(x)).collect()),
            Field::Triple(&mut (a, b, c)) => Json::Arr(vec![usz(a), usz(b), usz(c)]),
        };
        (name.to_string(), value)
    });
    Json::Obj(pairs.collect())
}

/// Decode what [`fields_to_json`] writes.  Every field is required: a
/// request that omits one is rejected with the field's name, never
/// defaulted, so a client and server that disagree on defaults can never
/// alias two different experiments.
pub fn fields_from_json<T: Fields>(j: &Json) -> Result<T, String> {
    fn required<'j, V>(
        j: &'j Json,
        k: &str,
        what: &str,
        get: impl FnOnce(&'j Json) -> Option<V>,
    ) -> Result<V, String> {
        j.get(k)
            .and_then(get)
            .ok_or_else(|| format!("no {what} field {k:?}"))
    }
    let ints = |k: &str, n: usize| -> Result<Vec<usize>, String> {
        let v = required(j, k, "array", Json::as_arr)?;
        if v.len() != n {
            return Err(format!("{k:?} wants {n} entries"));
        }
        v.iter()
            .map(|x| x.as_u64().map(|x| x as usize))
            .collect::<Option<_>>()
            .ok_or_else(|| format!("bad entry in {k:?}"))
    };
    let mut out = T::default();
    for (name, field) in out.fields() {
        match field {
            Field::F64(x) => *x = required(j, name, "number", Json::as_f64)?,
            Field::Usize(x) => *x = required(j, name, "integer", Json::as_u64)? as usize,
            Field::U64(x) => *x = required(j, name, "integer", Json::as_u64)?,
            Field::Bool(x) => *x = required(j, name, "boolean", Json::as_bool)?,
            Field::Array(xs) => {
                let v = ints(name, xs.len())?;
                xs.copy_from_slice(&v);
            }
            Field::Triple(t) => {
                let v = ints(name, 3)?;
                *t = (v[0], v[1], v[2]);
            }
        }
    }
    Ok(out)
}

pub fn stats_to_json(s: &SimStats) -> Json {
    Json::Obj(
        s.field_list()
            .into_iter()
            .map(|(k, v)| (k, Json::U64(v)))
            .collect(),
    )
}

pub fn stats_from_json(j: &Json) -> Result<SimStats, String> {
    let Json::Obj(pairs) = j else {
        return Err("stats: not an object".to_string());
    };
    let mut s = SimStats::default();
    let mut set = 0usize;
    for (k, v) in pairs {
        let v = v
            .as_u64()
            .ok_or_else(|| format!("stats field {k}: not a u64"))?;
        if !s.set_field(k, v) {
            return Err(format!("stats: unknown field {k}"));
        }
        set += 1;
    }
    // Reject entries from an older SimStats shape (missing counters would
    // silently read as zero otherwise).
    if set != s.field_list().len() {
        return Err(format!(
            "stats: {set} fields, expected {}",
            s.field_list().len()
        ));
    }
    Ok(s)
}

/// One simulation's cache entry: its stats, plus cycle accounting when the
/// run was observed and the interval-sampling estimate when it was sampled.
#[derive(Clone, Debug, PartialEq)]
pub struct SimEntry {
    pub stats: SimStats,
    pub accounting: Option<CycleAccounting>,
    pub sampling: Option<SampleSummary>,
}

/// Bare [`stats_to_json`] when nothing is attached; otherwise
/// `{stats, accounting?, sampling?}` in that field order.
pub fn sim_entry_to_json(e: &SimEntry) -> Json {
    if e.accounting.is_none() && e.sampling.is_none() {
        return stats_to_json(&e.stats);
    }
    let mut fields = vec![("stats", stats_to_json(&e.stats))];
    if let Some(a) = &e.accounting {
        fields.push(("accounting", accounting_to_json(a)));
    }
    if let Some(s) = &e.sampling {
        fields.push(("sampling", sample_to_json(s)));
    }
    Json::obj(fields)
}

/// Decode an entry of the shape its key family implies: accounting is
/// required exactly when `observed`, sampling exactly when `sampled`.
/// Accounting whose buckets do not sum to the stats' cycles is an error,
/// so a corrupt entry is a miss, never a wrong attribution table.
pub fn sim_entry_from_json(j: &Json, observed: bool, sampled: bool) -> Result<SimEntry, String> {
    if !observed && !sampled {
        return Ok(SimEntry {
            stats: stats_from_json(j)?,
            accounting: None,
            sampling: None,
        });
    }
    let stats = stats_from_json(j.get("stats").ok_or("no stats")?)?;
    let accounting = if observed {
        let a = accounting_from_json(j.get("accounting").ok_or("no accounting")?)?;
        if a.bucket_sum() != stats.cycles {
            return Err(format!(
                "bucket sum {} != cycles {}",
                a.bucket_sum(),
                stats.cycles
            ));
        }
        Some(a)
    } else {
        None
    };
    let sampling = if sampled {
        Some(sample_from_json(j.get("sampling").ok_or("no sampling")?)?)
    } else {
        None
    };
    Ok(SimEntry {
        stats,
        accounting,
        sampling,
    })
}

fn bitvec_to_json(v: &BitVec) -> Json {
    Json::obj(vec![
        ("len", Json::U64(v.len() as u64)),
        (
            "words",
            Json::Arr(
                v.words()
                    .iter()
                    .map(|w| Json::str(format!("{w:016x}")))
                    .collect(),
            ),
        ),
    ])
}

fn bitvec_from_json(j: &Json) -> Result<BitVec, String> {
    let len = get_usize(j, "len")?;
    let words = j
        .get("words")
        .and_then(Json::as_arr)
        .ok_or("bitvec: missing words")?
        .iter()
        .map(|w| {
            w.as_str()
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or_else(|| "bitvec: bad word".to_string())
        })
        .collect::<Result<Vec<u64>, String>>()?;
    if len > words.len() * 64 {
        return Err("bitvec: length exceeds words".to_string());
    }
    Ok(BitVec::from_raw(words, len))
}

pub fn profile_to_json(p: &Profile) -> Json {
    let branches = p
        .branches()
        .map(|(site, bp)| {
            Json::obj(vec![
                ("func", Json::U64(site.func.0 as u64)),
                ("block", Json::U64(site.block.0 as u64)),
                ("idx", Json::U64(site.idx as u64)),
                ("executed", Json::U64(bp.executed)),
                ("taken", Json::U64(bp.taken)),
                ("outcomes", bitvec_to_json(&bp.outcomes)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("retired", Json::U64(p.retired)),
        ("annulled", Json::U64(p.annulled)),
        (
            "by_class",
            Json::Arr(p.by_class.iter().map(|&v| Json::U64(v)).collect()),
        ),
        (
            "site_counts",
            Json::Arr(p.site_counts.iter().map(|&v| Json::U64(v)).collect()),
        ),
        ("branches", Json::Arr(branches)),
    ])
}

pub fn profile_from_json(j: &Json) -> Result<Profile, String> {
    let u64_arr = |key: &str| -> Result<Vec<u64>, String> {
        j.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("profile: missing {key}"))?
            .iter()
            .map(|v| {
                v.as_u64()
                    .ok_or_else(|| format!("profile: bad {key} entry"))
            })
            .collect()
    };
    let by_class_v = u64_arr("by_class")?;
    let mut by_class = [0u64; 8];
    if by_class_v.len() != 8 {
        return Err("profile: by_class length".to_string());
    }
    by_class.copy_from_slice(&by_class_v);

    let mut branches = Vec::new();
    for b in j
        .get("branches")
        .and_then(Json::as_arr)
        .ok_or("profile: missing branches")?
    {
        let site = InsnRef {
            func: FuncId(get_u64(b, "func")? as u32),
            block: BlockId(get_u64(b, "block")? as u32),
            idx: get_u64(b, "idx")? as u32,
        };
        let outcomes = bitvec_from_json(
            b.get("outcomes")
                .ok_or("profile: branch missing outcomes")?,
        )?;
        branches.push((
            site,
            BranchProfile {
                executed: get_u64(b, "executed")?,
                taken: get_u64(b, "taken")?,
                outcomes,
            },
        ));
    }
    Ok(Profile::from_branch_pairs(
        u64_arr("site_counts")?,
        branches,
        get_u64(j, "retired")?,
        by_class,
        get_u64(j, "annulled")?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::key;
    use guardspec_predict::Scheme;
    use guardspec_workloads::Scale;

    #[test]
    fn stats_roundtrip_through_text() {
        let mut s = SimStats {
            cycles: 123_456_789_012,
            committed: 99,
            queue_full_cycles: [1, 2, 3, 4],
            dcache_misses: 13,
            ..SimStats::default()
        };
        s.fu_issues[5] = 7;
        let text = stats_to_json(&s).to_pretty();
        let back = stats_from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn stats_rejects_incomplete_entries() {
        assert!(stats_from_json(&parse("{\"cycles\":1}").unwrap()).is_err());
        assert!(stats_from_json(&parse("{\"bogus\":1}").unwrap()).is_err());
    }

    #[test]
    fn profile_roundtrip_preserves_outcome_bits() {
        let mut bp = BranchProfile::default();
        for i in 0..131 {
            bp.outcomes.push(i % 3 == 0);
        }
        bp.executed = 131;
        bp.taken = bp.outcomes.count_ones() as u64;
        let site = InsnRef {
            func: FuncId(0),
            block: BlockId(4),
            idx: 2,
        };
        let p = Profile::from_branch_pairs(
            vec![5, 0, 9],
            vec![(site, bp.clone())],
            1000,
            [1, 2, 3, 4, 5, 6, 7, 8],
            3,
        );
        let text = profile_to_json(&p).to_compact();
        let back = profile_from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back.retired, p.retired);
        assert_eq!(back.site_counts, p.site_counts);
        assert_eq!(back.by_class, p.by_class);
        assert_eq!(back.branch(site).unwrap().outcomes, bp.outcomes);
    }

    #[test]
    fn report_roundtrip() {
        let r = ReportSummary {
            likelies: 1,
            ifconversions: 2,
            splits: 3,
            speculated_ops: 4,
            guarded_ops: 5,
            split_likelies: 6,
            decisions: vec![DecisionSummary {
                func: 0,
                block: 7,
                idx: 2,
                backward: true,
                executed: 4096,
                taken_rate: "0.9850".to_string(),
                behavior: "highly-taken(rate=0.9850)".to_string(),
                benefit: "-".to_string(),
                cost: "-".to_string(),
                action: "branch-likely".to_string(),
                reason: "taken rate above likely threshold".to_string(),
            }],
        };
        let back = report_from_json(&parse(&report_to_json(&r).to_compact()).unwrap()).unwrap();
        assert_eq!(back, r);
        assert!(back.decisions[0]
            .log_line()
            .contains("action=branch-likely"));
    }

    #[test]
    fn report_without_decisions_is_a_miss() {
        // A PR-4-era cache entry: counts only.  Must decode as an error so
        // the harness recomputes instead of reporting an empty log.
        let old = "{\"likelies\":1,\"ifconversions\":0,\"splits\":0,\
                   \"speculated_ops\":0,\"guarded_ops\":0,\"split_likelies\":0}";
        assert!(report_from_json(&parse(old).unwrap())
            .unwrap_err()
            .contains("decisions"));
    }

    #[test]
    fn accounting_roundtrip_preserves_buckets_and_sites() {
        let mut buckets = [0u64; CycleBucket::COUNT];
        buckets[CycleBucket::UsefulCommit.index()] = 1_000_000;
        buckets[CycleBucket::MispredictRecovery.index()] = 123;
        buckets[CycleBucket::Drain.index()] = 7;
        let sites = [
            (
                2u32,
                SiteCounters {
                    executions: 50,
                    mispredicts: 9,
                    likely_mispredicts: 1,
                    recovery_cycles: 123,
                },
            ),
            (
                5u32,
                SiteCounters {
                    executions: 10,
                    mispredicts: 0,
                    likely_mispredicts: 0,
                    recovery_cycles: 0,
                },
            ),
        ];
        let a = CycleAccounting::from_parts(buckets, 9, sites);
        let text = accounting_to_json(&a).to_compact();
        let back = accounting_from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back, a);
        assert_eq!(back.num_sites(), 9);
        assert_eq!(back.site(2).mispredicts, 9);
        // Serialization is canonical: re-encoding the decoded value is
        // byte-identical (artifact determinism depends on this).
        assert_eq!(accounting_to_json(&back).to_compact(), text);
    }

    #[test]
    fn accounting_rejects_malformed_entries() {
        assert!(accounting_from_json(&parse("{}").unwrap()).is_err());
        let missing_bucket = "{\"buckets\":{\"useful_commit\":1},\"num_sites\":0,\"sites\":[]}";
        assert!(accounting_from_json(&parse(missing_bucket).unwrap()).is_err());
    }

    #[test]
    fn sample_summary_roundtrip_is_bit_exact() {
        let s = SampleSummary {
            windows: 17,
            detail: 1000,
            warmup: 500,
            interval: 20_000,
            measured_entries: 17_000,
            total_entries: 345_678,
            ipc_mean: 1.234_567_890_123_456_7,
            ipc_ci95: 0.037_000_000_000_000_004,
            est_cycles: 280_123,
        };
        let text = sample_to_json(&s).to_compact();
        let back = sample_from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.ipc_mean.to_bits(), s.ipc_mean.to_bits());
        assert_eq!(back.ipc_ci95.to_bits(), s.ipc_ci95.to_bits());
        // Canonical re-encode (warm artifacts must match cold ones).
        assert_eq!(sample_to_json(&back).to_compact(), text);
        assert!(sample_from_json(&parse("{}").unwrap()).is_err());
    }

    #[test]
    fn sim_entries_roundtrip_in_every_shape() {
        let stats = SimStats {
            cycles: 10,
            committed: 7,
            ..SimStats::default()
        };
        let mut buckets = [0u64; CycleBucket::COUNT];
        buckets[CycleBucket::UsefulCommit.index()] = 10;
        let acct = CycleAccounting::from_parts(buckets, 3, []);
        let smp = SampleSummary {
            windows: 2,
            detail: 50,
            warmup: 50,
            interval: 1000,
            measured_entries: 100,
            total_entries: 2000,
            ipc_mean: 0.7,
            ipc_ci95: 0.01,
            est_cycles: 2857,
        };
        for (observed, sampled) in [(false, false), (true, false), (false, true), (true, true)] {
            let e = SimEntry {
                stats: stats.clone(),
                accounting: observed.then(|| acct.clone()),
                sampling: sampled.then(|| smp.clone()),
            };
            let text = sim_entry_to_json(&e).to_compact();
            let back = sim_entry_from_json(&parse(&text).unwrap(), observed, sampled).unwrap();
            assert_eq!(back, e, "observed={observed} sampled={sampled}");
        }
        // The plain entry is the bare stats object.
        let plain = SimEntry {
            stats: stats.clone(),
            accounting: None,
            sampling: None,
        };
        assert_eq!(
            sim_entry_to_json(&plain).to_compact(),
            stats_to_json(&stats).to_compact()
        );
        // Accounting that does not sum to the cycles is a miss.
        let short = SimEntry {
            stats: SimStats {
                cycles: 11,
                ..stats
            },
            accounting: Some(acct),
            sampling: None,
        };
        let text = sim_entry_to_json(&short).to_compact();
        assert!(sim_entry_from_json(&parse(&text).unwrap(), true, false)
            .unwrap_err()
            .contains("bucket sum"));
    }

    /// Perturb each field of `base` in turn: encode → decode through JSON
    /// text gives back an equal description, and the cache key moves.
    /// Dropping any one field from the encoding fails, naming the field.
    fn roundtrip_every_field<T: Fields + std::fmt::Debug>(
        base: &T,
        describe: fn(&T) -> String,
        key: fn(&T) -> String,
    ) {
        let n = base.clone().fields().len();
        for i in 0..n {
            let mut v = base.clone();
            let name = {
                let mut fields = v.fields();
                let (name, field) = &mut fields[i];
                match field {
                    Field::F64(x) => **x += 0.25,
                    Field::Usize(x) => **x += 1,
                    Field::U64(x) => **x += 1,
                    Field::Bool(x) => **x = !**x,
                    Field::Array(xs) => xs[0] += 1,
                    Field::Triple(t) => t.2 += 1,
                }
                *name
            };
            let text = fields_to_json(&v).to_compact();
            let back: T = fields_from_json(&parse(&text).unwrap()).unwrap();
            assert_eq!(describe(&back), describe(&v), "{name} does not roundtrip");
            assert_ne!(key(&v), key(base), "{name} is not keyed");

            let mut j = fields_to_json(base);
            let Json::Obj(pairs) = &mut j else {
                unreachable!("fields encode as an object")
            };
            assert_eq!(pairs.remove(i).0, name, "JSON order is field-list order");
            let err = fields_from_json::<T>(&j).unwrap_err();
            assert!(err.contains(&format!("{name:?}")), "dropping {name}: {err}");
        }
    }

    #[test]
    fn options_roundtrip_every_field() {
        for (_, preset) in DriverOptions::presets() {
            roundtrip_every_field(&preset, key::describe_options, |o| {
                key::transform_key("p", Scale::Test, o)
            });
        }
    }

    #[test]
    fn config_roundtrip_every_field() {
        roundtrip_every_field(&MachineConfig::r10000(), key::describe_config, |c| {
            let prog = key::ProgramDigest::of("p");
            key::sim_key(&prog, Scale::Test, Scheme::TwoBit, c, None, false)
        });
    }

    #[test]
    fn sample_params_roundtrip_every_field() {
        roundtrip_every_field(&SampleParams::default(), key::describe_sample, |p| {
            let (prog, cfg) = (key::ProgramDigest::of("p"), MachineConfig::r10000());
            key::sim_key(&prog, Scale::Test, Scheme::TwoBit, &cfg, Some(p), false)
        });
        assert_eq!(
            fields_to_json(&SampleParams::default()).to_compact(),
            r#"{"detail":1000,"warmup":1000,"interval":20000}"#
        );
    }
}
