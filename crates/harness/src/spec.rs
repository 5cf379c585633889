//! Experiment descriptions: which (workload × transform × scheme × machine)
//! cells an invocation needs.
//!
//! A cell is one column entry of a paper table: simulate `workload` under
//! `scheme`, optionally after transforming it with `transform` options, on
//! machine `cfg`.  The runner expands a spec into a three-stage job pipeline
//! per cell (profile → transform → simulate) and de-duplicates shared
//! stages: one workload's profile is computed once no matter how many cells
//! (or sweep points) consume it, and identical transforms are shared too.

use guardspec_core::DriverOptions;
use guardspec_predict::Scheme;
use guardspec_sim::MachineConfig;
use guardspec_workloads::{all_workloads, Scale, Workload};

/// One table cell to evaluate.
#[derive(Clone, Debug)]
pub struct CellSpec {
    /// Index into [`ExperimentSpec::workloads`].
    pub workload: usize,
    /// Display label (scheme or preset name, e.g. `"2-bit BP"`, `"proposed"`).
    pub label: String,
    /// Apply the Figure-6 transform with these options before simulating.
    pub transform: Option<DriverOptions>,
    pub scheme: Scheme,
    pub cfg: MachineConfig,
}

/// A batch of cells over a fixed workload set.
pub struct ExperimentSpec {
    /// Artifact name (`meta.experiment` records it; usually the binary name).
    pub name: String,
    pub scale: Scale,
    pub workloads: Vec<Workload>,
    pub cells: Vec<CellSpec>,
}

impl ExperimentSpec {
    /// A spec with no cells: profiles every workload (Table 1, sweeps 1–2).
    pub fn profiles_only(name: &str, scale: Scale) -> ExperimentSpec {
        ExperimentSpec {
            name: name.to_string(),
            scale,
            workloads: all_workloads(scale),
            cells: Vec::new(),
        }
    }

    /// The Tables 3/4 matrix: every workload under 2-bit BP (original code),
    /// Proposed (transformed code), and perfect BP (original code) — in
    /// exactly the [`Scheme::ALL`] column order the tables print.
    pub fn three_schemes(name: &str, scale: Scale) -> ExperimentSpec {
        let mut spec = ExperimentSpec::profiles_only(name, scale);
        let cfg = MachineConfig::r10000();
        for w in 0..spec.workloads.len() {
            for scheme in Scheme::ALL {
                spec.cells.push(CellSpec {
                    workload: w,
                    label: scheme.label().to_string(),
                    transform: (scheme == Scheme::Proposed).then(DriverOptions::proposed),
                    scheme,
                    cfg: cfg.clone(),
                });
            }
        }
        spec
    }

    /// The ablation matrix: the five driver presets per workload (the
    /// title's individual/combined effects).
    pub fn ablation(name: &str, scale: Scale) -> ExperimentSpec {
        let mut spec = ExperimentSpec::profiles_only(name, scale);
        let cfg = MachineConfig::r10000();
        let presets: [(&str, DriverOptions); 5] = [
            ("baseline", DriverOptions::baseline()),
            ("speculation", DriverOptions::speculation_only()),
            ("guarded", DriverOptions::guarded_only()),
            ("conventional", DriverOptions::conventional()),
            ("proposed", DriverOptions::proposed()),
        ];
        for w in 0..spec.workloads.len() {
            for (label, opts) in &presets {
                spec.cells.push(CellSpec {
                    workload: w,
                    label: label.to_string(),
                    transform: Some(opts.clone()),
                    scheme: if *label == "baseline" {
                        Scheme::TwoBit
                    } else {
                        Scheme::Proposed
                    },
                    cfg: cfg.clone(),
                });
            }
        }
        spec
    }

    /// Append one custom cell (sweep binaries build their matrices this way).
    pub fn push_cell(
        &mut self,
        workload: usize,
        label: impl Into<String>,
        transform: Option<DriverOptions>,
        scheme: Scheme,
        cfg: MachineConfig,
    ) -> usize {
        self.cells.push(CellSpec {
            workload,
            label: label.into(),
            transform,
            scheme,
            cfg,
        });
        self.cells.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_scheme_matrix_shape() {
        let spec = ExperimentSpec::three_schemes("t", Scale::Test);
        assert_eq!(spec.cells.len(), spec.workloads.len() * 3);
        // Column order matches Scheme::ALL for every workload row.
        for (i, cell) in spec.cells.iter().enumerate() {
            assert_eq!(cell.workload, i / 3);
            assert_eq!(cell.scheme, Scheme::ALL[i % 3]);
            assert_eq!(cell.transform.is_some(), cell.scheme == Scheme::Proposed);
        }
    }

    #[test]
    fn ablation_matrix_shape() {
        let spec = ExperimentSpec::ablation("a", Scale::Test);
        assert_eq!(spec.cells.len(), spec.workloads.len() * 5);
        assert!(spec.cells.iter().all(|c| c.transform.is_some()));
        assert_eq!(spec.cells[0].scheme, Scheme::TwoBit); // baseline column
    }
}
