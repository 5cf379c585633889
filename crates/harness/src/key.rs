//! Cache-key construction: canonical fingerprints of everything that can
//! change a stage's output.
//!
//! A stage result is addressed by a stable hash of:
//!
//! * the **program text** (the printed IR — workload inputs are embedded in
//!   the program's data section, so text fully determines execution),
//! * the **scale** tag,
//! * for transforms, every field of [`DriverOptions`] (including every
//!   [`FeedbackParams`](guardspec_core::FeedbackParams) threshold),
//! * for simulations, the [`Scheme`] and every field of [`MachineConfig`]
//!   (including all latencies, queue sizes and unit counts), plus every
//!   [`SampleParams`] field for sampled runs.  The stage tag names the
//!   entry's payload shape ([`sim_key`]).
//!
//! The canonical descriptions below enumerate struct fields *by hand* — if a
//! field is added upstream it must be added here too, or two configurations
//! differing only in that field would alias.  The property tests in
//! `tests/cache_key_prop.rs` perturb every current field and assert the key
//! changes.

use crate::hash::StableHasher;
use guardspec_core::DriverOptions;
use guardspec_predict::Scheme;
use guardspec_sim::{MachineConfig, SampleParams};
use guardspec_workloads::Scale;

/// Stable textual tag for a scale (also the `--scale` argument spelling).
pub fn scale_tag(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Small => "small",
        Scale::Paper => "paper",
    }
}

/// Canonical `name=value` listing of every `DriverOptions` field.  Floats
/// are rendered as bit patterns so distinct values never collide through
/// decimal formatting.
pub fn describe_options(o: &DriverOptions) -> String {
    let f = &o.feedback;
    format!(
        "likely_threshold={:016x};convert_threshold={:016x};monotonic_toggle_max={:016x};\
         seg_window={};seg_bias={:016x};max_segments={};min_segment_frac={:016x};\
         max_period={};period_agreement={:016x};\
         enable_likely={};enable_ifconvert={};enable_split={};enable_speculation={};\
         max_arm_len={};max_speculate_ops={};allow_speculative_loads={};\
         max_likelies_per_site={};mispredict_penalty={:016x}",
        f.likely_threshold.to_bits(),
        f.convert_threshold.to_bits(),
        f.monotonic_toggle_max.to_bits(),
        f.seg_window,
        f.seg_bias.to_bits(),
        f.max_segments,
        f.min_segment_frac.to_bits(),
        f.max_period,
        f.period_agreement.to_bits(),
        o.enable_likely,
        o.enable_ifconvert,
        o.enable_split,
        o.enable_speculation,
        o.max_arm_len,
        o.max_speculate_ops,
        o.allow_speculative_loads,
        o.max_likelies_per_site,
        o.mispredict_penalty.to_bits(),
    )
}

/// Canonical `name=value` listing of every `MachineConfig` field.
pub fn describe_config(c: &MachineConfig) -> String {
    let l = &c.latencies;
    format!(
        "fetch_width={};commit_width={};rob_size={};queue_size={:?};fu_count={:?};\
         max_inflight_branches={};mispredict_recovery={};frontend_depth={};\
         alu={};ldst={};sft={};fp_add={};fp_mul={};fp_div={};cache_miss_penalty={};\
         bht_entries={};btb_sets={};icache={:?};dcache={:?}",
        c.fetch_width,
        c.commit_width,
        c.rob_size,
        c.queue_size,
        c.fu_count,
        c.max_inflight_branches,
        c.mispredict_recovery,
        c.frontend_depth,
        l.alu,
        l.ldst,
        l.sft,
        l.fp_add,
        l.fp_mul,
        l.fp_div,
        l.cache_miss_penalty,
        c.bht_entries,
        c.btb_sets,
        c.icache,
        c.dcache,
    )
}

/// Canonical `name=value` listing of every [`SampleParams`] field.  Only
/// appended to simulation keys when sampling is on: an unsampled run's key
/// is unchanged.  No engine is keyed: the runner has one.
pub fn describe_sample(p: &SampleParams) -> String {
    format!(
        "detail={};warmup={};interval={}",
        p.detail, p.warmup, p.interval
    )
}

fn stage_key(stage: &str, program_text: &str, scale: Scale, extras: &[&str]) -> String {
    let mut h = StableHasher::new();
    h.write_str(stage);
    h.write_str(program_text);
    h.write_str(scale_tag(scale));
    for e in extras {
        h.write_str(e);
    }
    format!("{stage}-{}", h.finish_hex())
}

/// Key for a profiling run of `program_text` at `scale`.
pub fn profile_key(program_text: &str, scale: Scale) -> String {
    stage_key("profile", program_text, scale, &[])
}

/// Key for the binary dynamic-trace blob of `program_text` at `scale`.
/// The trace depends only on the program (inputs are embedded in its data
/// section), so base and transformed programs each get exactly one blob.
pub fn trace_key(program_text: &str, scale: Scale) -> String {
    stage_key("trace", program_text, scale, &[])
}

/// Key for the Figure-6 transform of `program_text` under `opts`.
pub fn transform_key(program_text: &str, scale: Scale, opts: &DriverOptions) -> String {
    stage_key("transform", program_text, scale, &[&describe_options(opts)])
}

/// Key for a cycle-level simulation of `program_text` under `scheme`/`cfg`.
///
/// The stage tag names the entry's payload shape, so no two shapes ever
/// share a key: `sim` holds bare stats, `obsim` adds cycle accounting
/// (`observed`), `smpsim` adds the sampling estimate, and `smpobsim` adds
/// both.  Sampled keys also hash every [`SampleParams`] field, so each
/// sampling configuration gets its own entry.
pub fn sim_key(
    program_text: &str,
    scale: Scale,
    scheme: Scheme,
    cfg: &MachineConfig,
    sample: Option<&SampleParams>,
    observed: bool,
) -> String {
    let stage = match (sample.is_some(), observed) {
        (false, false) => "sim",
        (false, true) => "obsim",
        (true, false) => "smpsim",
        (true, true) => "smpobsim",
    };
    let scheme = format!("{scheme:?}");
    let config = describe_config(cfg);
    let sample = sample.map(describe_sample);
    let mut extras = vec![scheme.as_str(), config.as_str()];
    extras.extend(sample.as_deref());
    stage_key(stage, program_text, scale, &extras)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plain simulation key of `"prog"` at test scale.
    fn plain(scheme: Scheme, cfg: &MachineConfig) -> String {
        sim_key("prog", Scale::Test, scheme, cfg, None, false)
    }

    #[test]
    fn stage_and_inputs_separate_keys() {
        let opts = DriverOptions::proposed();
        let cfg = MachineConfig::r10000();
        let p = profile_key("prog", Scale::Test);
        let t = transform_key("prog", Scale::Test, &opts);
        let s = plain(Scheme::TwoBit, &cfg);
        let tr = trace_key("prog", Scale::Test);
        assert_ne!(p, t);
        assert_ne!(t, s);
        assert_ne!(tr, p, "trace and profile keys must not alias");
        assert_ne!(
            trace_key("prog", Scale::Test),
            trace_key("prog2", Scale::Test)
        );
        assert_ne!(
            trace_key("prog", Scale::Test),
            trace_key("prog", Scale::Small)
        );
        assert_ne!(
            profile_key("prog", Scale::Test),
            profile_key("prog", Scale::Small)
        );
        assert_ne!(
            profile_key("prog", Scale::Test),
            profile_key("prog2", Scale::Test)
        );
        assert_ne!(plain(Scheme::TwoBit, &cfg), plain(Scheme::Perfect, &cfg));
        let observed = |scheme| sim_key("prog", Scale::Test, scheme, &cfg, None, true);
        assert_ne!(
            observed(Scheme::TwoBit),
            plain(Scheme::TwoBit, &cfg),
            "observed and plain sim keys must not alias"
        );
        assert_ne!(observed(Scheme::TwoBit), observed(Scheme::Perfect));
    }

    #[test]
    fn sampled_keys_are_distinct_and_parameter_sensitive() {
        let cfg = MachineConfig::r10000();
        let base = SampleParams::default();
        let key =
            |sample, observed| sim_key("prog", Scale::Test, Scheme::TwoBit, &cfg, sample, observed);
        let smp = key(Some(&base), false);
        let osmp = key(Some(&base), true);
        assert_ne!(
            smp,
            key(None, false),
            "sampled and exact sim keys must not alias"
        );
        assert_ne!(
            osmp,
            key(None, true),
            "sampled and exact observed keys must not alias"
        );
        assert_ne!(smp, osmp);
        // Every SampleParams field is key-relevant.
        for (i, p) in [
            SampleParams {
                detail: base.detail + 1,
                ..base
            },
            SampleParams {
                warmup: base.warmup + 1,
                ..base
            },
            SampleParams {
                interval: base.interval + 1,
                ..base
            },
        ]
        .iter()
        .enumerate()
        {
            assert_ne!(smp, key(Some(p), false), "sample field {i} not keyed");
            assert_ne!(
                osmp,
                key(Some(p), true),
                "sample field {i} not keyed (observed)"
            );
        }
    }

    /// Existing caches keep hitting only while every family's key stays
    /// exactly what it was when its entries were written.
    #[test]
    fn sim_keys_are_pinned() {
        let cfg = MachineConfig::r10000();
        let base = SampleParams::default();
        let key =
            |sample, observed| sim_key("prog", Scale::Test, Scheme::TwoBit, &cfg, sample, observed);
        assert_eq!(key(None, false), "sim-dbab868cf02b22d76b6c64f4ac9ffeb8");
        assert_eq!(key(None, true), "obsim-76296744fb516f5664020e0b23a9c869");
        assert_eq!(
            key(Some(&base), false),
            "smpsim-d45b89419bf8e63b8d7f7572c9a7cb3c"
        );
        assert_eq!(
            key(Some(&base), true),
            "smpobsim-ea98d16404bc386e44c2a70f8f634155"
        );
    }

    #[test]
    fn preset_options_all_distinct() {
        let keys: Vec<String> = [
            DriverOptions::baseline(),
            DriverOptions::speculation_only(),
            DriverOptions::guarded_only(),
            DriverOptions::conventional(),
            DriverOptions::proposed(),
        ]
        .iter()
        .map(|o| transform_key("p", Scale::Test, o))
        .collect();
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j], "presets {i} and {j} alias");
            }
        }
    }
}
