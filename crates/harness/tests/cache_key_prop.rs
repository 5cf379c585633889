//! Cache-key sensitivity: changing ANY field of `DriverOptions` (including
//! every `FeedbackParams` threshold) or `MachineConfig` (including every
//! latency, array slot and cache parameter) must change the corresponding
//! cache key.  The mutation tables below are written by hand, apart from
//! the one field list per struct (`guardspec_harness::codec::Fields`) that
//! the key text is derived from, so a listed field that the key text
//! drops fails here.  A field added upstream is caught earlier: the field
//! list destructures its struct without `..`, so it stops compiling.

use guardspec_core::DriverOptions;
use guardspec_harness::key::{sim_key, transform_key, ProgramDigest};
use guardspec_predict::Scheme;
use guardspec_sim::MachineConfig;
use guardspec_workloads::Scale;
use proptest::prelude::*;

type OptMut = (&'static str, fn(&mut DriverOptions));
type CfgMut = (&'static str, fn(&mut MachineConfig));

fn option_mutations() -> Vec<OptMut> {
    vec![
        ("likely_threshold", |o| o.feedback.likely_threshold += 0.011),
        ("convert_threshold", |o| {
            o.feedback.convert_threshold += 0.011
        }),
        ("monotonic_toggle_max", |o| {
            o.feedback.monotonic_toggle_max += 0.011
        }),
        ("seg_window", |o| o.feedback.seg_window += 1),
        ("seg_bias", |o| o.feedback.seg_bias += 0.011),
        ("max_segments", |o| o.feedback.max_segments += 1),
        ("min_segment_frac", |o| o.feedback.min_segment_frac += 0.011),
        ("max_period", |o| o.feedback.max_period += 1),
        ("period_agreement", |o| o.feedback.period_agreement += 0.011),
        ("enable_likely", |o| o.enable_likely = !o.enable_likely),
        ("enable_ifconvert", |o| {
            o.enable_ifconvert = !o.enable_ifconvert
        }),
        ("enable_split", |o| o.enable_split = !o.enable_split),
        ("enable_speculation", |o| {
            o.enable_speculation = !o.enable_speculation
        }),
        ("max_arm_len", |o| o.max_arm_len += 1),
        ("max_speculate_ops", |o| o.max_speculate_ops += 1),
        ("allow_speculative_loads", |o| {
            o.allow_speculative_loads = !o.allow_speculative_loads
        }),
        ("max_likelies_per_site", |o| o.max_likelies_per_site += 1),
        ("mispredict_penalty", |o| o.mispredict_penalty += 0.511),
    ]
}

fn config_mutations() -> Vec<CfgMut> {
    vec![
        ("fetch_width", |c| c.fetch_width += 1),
        ("commit_width", |c| c.commit_width += 1),
        ("rob_size", |c| c.rob_size += 1),
        ("queue_size[0]", |c| c.queue_size[0] += 1),
        ("queue_size[1]", |c| c.queue_size[1] += 1),
        ("queue_size[2]", |c| c.queue_size[2] += 1),
        ("queue_size[3]", |c| c.queue_size[3] += 1),
        ("fu_count[0]", |c| c.fu_count[0] += 1),
        ("fu_count[3]", |c| c.fu_count[3] += 1),
        // Slot 7 is the Nop class's "infinite units" sentinel (usize::MAX),
        // so wrap rather than overflow — any value change must re-key.
        ("fu_count[7]", |c| {
            c.fu_count[7] = c.fu_count[7].wrapping_add(1)
        }),
        ("max_inflight_branches", |c| c.max_inflight_branches += 1),
        ("mispredict_recovery", |c| c.mispredict_recovery += 1),
        ("frontend_depth", |c| c.frontend_depth += 1),
        ("latencies.alu", |c| c.latencies.alu += 1),
        ("latencies.ldst", |c| c.latencies.ldst += 1),
        ("latencies.sft", |c| c.latencies.sft += 1),
        ("latencies.fp_add", |c| c.latencies.fp_add += 1),
        ("latencies.fp_mul", |c| c.latencies.fp_mul += 1),
        ("latencies.fp_div", |c| c.latencies.fp_div += 1),
        ("latencies.cache_miss_penalty", |c| {
            c.latencies.cache_miss_penalty += 1
        }),
        ("bht_entries", |c| c.bht_entries *= 2),
        ("btb_sets", |c| c.btb_sets *= 2),
        ("icache.total", |c| c.icache.0 *= 2),
        ("icache.line", |c| c.icache.1 *= 2),
        ("icache.ways", |c| c.icache.2 += 1),
        ("dcache.total", |c| c.dcache.0 *= 2),
        ("dcache.line", |c| c.dcache.1 *= 2),
        ("dcache.ways", |c| c.dcache.2 += 1),
    ]
}

const TEXT: &str = "func main:\nentry:\n  halt\n";

/// The simulation key of `TEXT` at test scale, unsampled and unobserved.
fn sim(scheme: Scheme, cfg: &MachineConfig) -> String {
    let prog = ProgramDigest::of(TEXT);
    sim_key(&prog, Scale::Test, scheme, cfg, None, false)
}

proptest! {
    /// Random single-field perturbations of the driver options change the
    /// transform key.
    #[test]
    fn options_perturbation_changes_transform_key(i in 0usize..18) {
        let muts = option_mutations();
        let (name, m) = muts[i % muts.len()];
        let base = DriverOptions::proposed();
        let mut perturbed = base.clone();
        m(&mut perturbed);
        prop_assert_ne!(
            transform_key(TEXT, Scale::Test, &base),
            transform_key(TEXT, Scale::Test, &perturbed),
            "DriverOptions field {} did not affect the cache key", name
        );
    }

    /// Random single-field perturbations of the machine config change the
    /// simulation key.
    #[test]
    fn config_perturbation_changes_sim_key(i in 0usize..28) {
        let muts = config_mutations();
        let (name, m) = muts[i % muts.len()];
        let base = MachineConfig::r10000();
        let mut perturbed = base.clone();
        m(&mut perturbed);
        prop_assert_ne!(
            sim(Scheme::TwoBit, &base),
            sim(Scheme::TwoBit, &perturbed),
            "MachineConfig field {} did not affect the cache key", name
        );
    }
}

/// Exhaustive (non-random) sweep over the same mutation tables, so every
/// field is provably covered even on an unlucky proptest seed.
#[test]
fn every_field_perturbation_changes_the_key() {
    let base_o = DriverOptions::proposed();
    for (name, m) in option_mutations() {
        let mut p = base_o.clone();
        m(&mut p);
        assert_ne!(
            transform_key(TEXT, Scale::Test, &base_o),
            transform_key(TEXT, Scale::Test, &p),
            "DriverOptions field {name} not in the cache key"
        );
    }
    let base_c = MachineConfig::r10000();
    for (name, m) in config_mutations() {
        let mut p = base_c.clone();
        m(&mut p);
        assert_ne!(
            sim(Scheme::TwoBit, &base_c),
            sim(Scheme::TwoBit, &p),
            "MachineConfig field {name} not in the cache key"
        );
    }
}

#[test]
fn scale_scheme_and_text_are_in_the_key() {
    let o = DriverOptions::proposed();
    let c = MachineConfig::r10000();
    assert_ne!(
        transform_key(TEXT, Scale::Test, &o),
        transform_key(TEXT, Scale::Small, &o)
    );
    assert_ne!(sim(Scheme::TwoBit, &c), sim(Scheme::Perfect, &c));
    assert_ne!(
        transform_key(TEXT, Scale::Test, &o),
        transform_key("func main:\nentry:\n  li r1, 1\n  halt\n", Scale::Test, &o)
    );
}
