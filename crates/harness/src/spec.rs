//! Experiment descriptions: which (workload × transform × scheme × machine)
//! cells an invocation needs.
//!
//! A cell is one column entry of a paper table: simulate `workload` under
//! `scheme`, optionally after transforming it with `transform` options, on
//! machine `cfg`.  The runner groups the cells into one job per program and
//! shares every stage it can: one workload's profile is computed once no
//! matter how many cells (or sweep points) consume it, identical transforms
//! are shared, and the cells of one program replay one trace.

use guardspec_core::DriverOptions;
use guardspec_predict::Scheme;
use guardspec_sim::MachineConfig;
use guardspec_workloads::{all_workloads, Scale, Workload};

/// The paper workloads every paper matrix spans, in Table 1 order: the
/// names [`all_workloads`] builds, for describing a matrix (a `gsd`
/// request) without building its programs.
pub const PAPER_WORKLOADS: [&str; 4] = ["compress", "espresso", "xlisp", "grep"];

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

    /// The Tables 3/4 matrix over the paper workloads
    /// ([`three_scheme_cells`]).
    pub fn three_schemes(name: &str, scale: Scale) -> ExperimentSpec {
        let mut spec = ExperimentSpec::profiles_only(name, scale);
        spec.cells = three_scheme_cells(spec.workloads.len());
        spec
    }

    /// The ablation matrix over the paper workloads ([`ablation_cells`]).
    pub fn ablation(name: &str, scale: Scale) -> ExperimentSpec {
        let mut spec = ExperimentSpec::profiles_only(name, scale);
        spec.cells = ablation_cells(spec.workloads.len());
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

/// The Tables 3/4 cells over `rows` workloads: every workload under 2-bit
/// BP (original code), Proposed (transformed code) and perfect BP
/// (original code), in exactly the [`Scheme::ALL`] column order the tables
/// print.
pub fn three_scheme_cells(rows: usize) -> Vec<CellSpec> {
    let columns = Scheme::ALL.map(|scheme| {
        let transform = (scheme == Scheme::Proposed).then(DriverOptions::proposed);
        (scheme.label(), transform, scheme)
    });
    grid(rows, &columns)
}

/// The ablation cells over `rows` workloads: every preset, in
/// [`DriverOptions::presets`] order (the title's individual/combined
/// effects).  The baseline preset, which transforms nothing, runs under
/// 2-bit BP; every other preset runs under the proposed scheme.
pub fn ablation_cells(rows: usize) -> Vec<CellSpec> {
    let columns = DriverOptions::presets().map(|(name, opts)| {
        let scheme = if name == "baseline" {
            Scheme::TwoBit
        } else {
            Scheme::Proposed
        };
        (name, Some(opts), scheme)
    });
    grid(rows, &columns)
}

/// `rows` workloads × `columns` (label, transform, scheme), row-major, on
/// the R10000 machine.
fn grid(rows: usize, columns: &[(&str, Option<DriverOptions>, Scheme)]) -> Vec<CellSpec> {
    let cfg = MachineConfig::r10000();
    let mut cells = Vec::with_capacity(rows * columns.len());
    for workload in 0..rows {
        for (label, transform, scheme) in columns {
            cells.push(CellSpec {
                workload,
                label: label.to_string(),
                transform: transform.clone(),
                scheme: *scheme,
                cfg: cfg.clone(),
            });
        }
    }
    cells
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

    #[test]
    fn paper_workload_names_are_the_built_ones() {
        let spec = ExperimentSpec::profiles_only("p", Scale::Test);
        let built: Vec<&str> = spec.workloads.iter().map(|w| w.name).collect();
        assert_eq!(built, PAPER_WORKLOADS);
    }
}
