//! Cache-key construction: canonical fingerprints of everything that can
//! change a stage's output.
//!
//! A stage result is addressed by a stable hash of:
//!
//! * the **program text** (the printed IR — workload inputs are embedded in
//!   the program's data section, so text fully determines execution): the
//!   full text for profiles, traces and transforms, and its
//!   [`ProgramDigest`] for simulations, so that a cell's key needs no more
//!   of its program than a digest computed once per program (a cached
//!   transform entry holds the digest in place of the text),
//! * the **scale** tag,
//! * for transforms, every field of [`DriverOptions`] (including every
//!   [`FeedbackParams`](guardspec_core::FeedbackParams) threshold),
//! * for simulations, the [`Scheme`] and every field of [`MachineConfig`]
//!   (including all latencies, queue sizes and unit counts), plus every
//!   [`SampleParams`] field for sampled runs.  The stage tag names the
//!   entry's payload shape ([`sim_key`]).
//!
//! The descriptions walk each struct's one field list ([`Fields`]), which
//! the `/run` protocol's JSON codec shares.  A field added upstream fails
//! to compile there until it is listed, so it cannot silently alias two
//! configurations' keys.

use crate::codec::{Field, Fields};
use crate::hash::{hex_digest, StableHasher};
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

/// Canonical `name=value;…` listing of every field of `v`, in its field
/// list's order.  Floats are rendered as bit patterns so distinct values
/// never collide through decimal formatting; arrays render as `[a, b, …]`
/// and cache triples as `(a, b, c)`.
fn describe(v: &impl Fields) -> String {
    use std::fmt::Write as _;
    let mut v = v.clone();
    let mut out = String::with_capacity(512);
    for (i, (name, field)) in v.fields().into_iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        out.push_str(name);
        out.push('=');
        let _ = match field {
            Field::F64(x) => write!(out, "{:016x}", x.to_bits()),
            Field::Usize(x) => write!(out, "{x}"),
            Field::U64(x) => write!(out, "{x}"),
            Field::Bool(x) => write!(out, "{x}"),
            Field::Array(xs) => write!(out, "{xs:?}"),
            Field::Triple(t) => write!(out, "{t:?}"),
        };
    }
    out
}

/// Canonical listing of every `DriverOptions` field, its
/// [`FeedbackParams`](guardspec_core::FeedbackParams) thresholds included.
pub fn describe_options(o: &DriverOptions) -> String {
    describe(o)
}

/// Canonical listing of every `MachineConfig` field, its latencies
/// included.
pub fn describe_config(c: &MachineConfig) -> String {
    describe(c)
}

/// Canonical listing of every [`SampleParams`] field.  Only appended to
/// simulation keys when sampling is on: an unsampled run's key is
/// unchanged.  No engine is keyed: the runner has one.
pub fn describe_sample(p: &SampleParams) -> String {
    describe(p)
}

/// The digest of a program's printed text: what a simulation key names
/// its program by.  A newtype, so a program's text cannot be passed where
/// its digest is meant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProgramDigest(String);

impl ProgramDigest {
    /// The digest of `program_text`.
    pub fn of(program_text: &str) -> ProgramDigest {
        ProgramDigest(hex_digest(program_text))
    }

    /// A digest read back from a cache entry: exactly 32 lowercase hex
    /// characters, as [`ProgramDigest::as_str`] writes it.
    pub fn parse(s: &str) -> Result<ProgramDigest, String> {
        let hex = |c: char| c.is_ascii_digit() || ('a'..='f').contains(&c);
        if s.len() == 32 && s.chars().all(hex) {
            Ok(ProgramDigest(s.to_string()))
        } else {
            Err(format!("not a program digest: {s:?}"))
        }
    }

    pub fn as_str(&self) -> &str {
        &self.0
    }
}

fn stage_key(stage: &str, program: &str, scale: Scale, extras: &[&str]) -> String {
    let mut h = StableHasher::new();
    h.write_str(stage);
    h.write_str(program);
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

/// Key for a cycle-level simulation of the program whose text has
/// `digest`, under `scheme`/`cfg`.
///
/// The stage tag names the entry's payload shape, so no two shapes ever
/// share a key: `sim` holds bare stats, `obsim` adds cycle accounting
/// (`observed`), `smpsim` adds the sampling estimate, and `smpobsim` adds
/// both.  Sampled keys also hash every [`SampleParams`] field, so each
/// sampling configuration gets its own entry.
pub fn sim_key(
    digest: &ProgramDigest,
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
    stage_key(stage, digest.as_str(), scale, &extras)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plain simulation key of `"prog"` at test scale.
    fn plain(scheme: Scheme, cfg: &MachineConfig) -> String {
        let prog = ProgramDigest::of("prog");
        sim_key(&prog, Scale::Test, scheme, cfg, None, false)
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
        let prog = ProgramDigest::of("prog");
        let observed = |scheme| sim_key(&prog, Scale::Test, scheme, &cfg, None, true);
        assert_ne!(
            observed(Scheme::TwoBit),
            plain(Scheme::TwoBit, &cfg),
            "observed and plain sim keys must not alias"
        );
        assert_ne!(observed(Scheme::TwoBit), observed(Scheme::Perfect));
        let prog2 = ProgramDigest::of("prog2");
        assert_ne!(
            plain(Scheme::TwoBit, &cfg),
            sim_key(&prog2, Scale::Test, Scheme::TwoBit, &cfg, None, false),
            "programs with different texts must not share sim entries"
        );
    }

    #[test]
    fn digests_round_trip_and_reject_anything_else() {
        let d = ProgramDigest::of("prog");
        assert_eq!(ProgramDigest::parse(d.as_str()), Ok(d.clone()));
        assert_ne!(d, ProgramDigest::of("prog2"));
        for bad in ["", "prog", &d.as_str()[1..], &d.as_str().to_uppercase()] {
            assert!(ProgramDigest::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn sampled_keys_are_distinct_and_parameter_sensitive() {
        let cfg = MachineConfig::r10000();
        let base = SampleParams::default();
        let prog = ProgramDigest::of("prog");
        let key =
            |sample, observed| sim_key(&prog, Scale::Test, Scheme::TwoBit, &cfg, sample, observed);
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
        let prog = ProgramDigest::of("prog");
        assert_eq!(prog.as_str(), hex_digest("prog"));
        let key =
            |sample, observed| sim_key(&prog, Scale::Test, Scheme::TwoBit, &cfg, sample, observed);
        assert_eq!(key(None, false), "sim-2e4d445850b6aa200de0527b4da1b713");
        assert_eq!(key(None, true), "obsim-d75164df7827425f503174d9b889104a");
        assert_eq!(
            key(Some(&base), false),
            "smpsim-825cdcfd89d190e71dcf2298999364bb"
        );
        assert_eq!(
            key(Some(&base), true),
            "smpobsim-bf57a209eca3e6cbe5ac364e5f7bdb1a"
        );
    }

    #[test]
    fn preset_options_all_distinct() {
        let keys: Vec<String> = DriverOptions::presets()
            .iter()
            .map(|(_, o)| transform_key("p", Scale::Test, o))
            .collect();
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j], "presets {i} and {j} alias");
            }
        }
    }

    /// The transform key of every preset and the exact key texts, as
    /// computed before the texts were derived from one field list per
    /// struct: a preset's warm transform entries keep hitting only while
    /// these hold.
    #[test]
    fn transform_keys_and_key_texts_are_pinned() {
        for (opts, pinned) in [
            (
                DriverOptions::baseline(),
                "2b46eaedbb636a9e16dd6bc3a6303491",
            ),
            (
                DriverOptions::speculation_only(),
                "685324e483013b2e19b76abf9e79b661",
            ),
            (
                DriverOptions::guarded_only(),
                "cba1a4fe1bf0a09ab0b9d01ec48278c7",
            ),
            (
                DriverOptions::conventional(),
                "881da0c7fdd846c2dae6dd335ec17905",
            ),
            (
                DriverOptions::proposed(),
                "f8441d9c7e8448e19617a4a986180dd7",
            ),
        ] {
            assert_eq!(
                transform_key("prog", Scale::Test, &opts),
                format!("transform-{pinned}")
            );
        }
        assert_eq!(
            describe_options(&DriverOptions::proposed()),
            "likely_threshold=3fee666666666666;convert_threshold=3fe4cccccccccccd;\
             monotonic_toggle_max=3fc999999999999a;seg_window=16;seg_bias=3feccccccccccccd;\
             max_segments=4;min_segment_frac=3fc3333333333333;max_period=8;\
             period_agreement=3fee666666666666;enable_likely=true;enable_ifconvert=true;\
             enable_split=true;enable_speculation=true;max_arm_len=24;max_speculate_ops=4;\
             allow_speculative_loads=false;max_likelies_per_site=4;\
             mispredict_penalty=4020000000000000"
        );
        assert_eq!(
            describe_config(&MachineConfig::r10000()),
            "fetch_width=4;commit_width=4;rob_size=32;queue_size=[4, 16, 16, 16];\
             fu_count=[2, 1, 1, 1, 1, 1, 1, 18446744073709551615];max_inflight_branches=4;\
             mispredict_recovery=3;frontend_depth=2;alu=1;ldst=2;sft=1;fp_add=3;fp_mul=3;\
             fp_div=3;cache_miss_penalty=6;bht_entries=512;btb_sets=64;\
             icache=(32768, 32, 2);dcache=(32768, 32, 2)"
        );
        assert_eq!(
            describe_sample(&SampleParams::default()),
            "detail=1000;warmup=1000;interval=20000"
        );
    }
}
