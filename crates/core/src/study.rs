//! High-level study API and result assembly.
//!
//! [`Study`] is the one-call entry point: configure, optionally script
//! faults, run.  The configuration decides the deployment shape —
//! messaging backend via [`StudyConfig::transport`] and server count via
//! [`StudyConfig::n_shards`] (a sharded run routes, supervises and
//! reduces through [`crate::shard`]) — while the API stays identical.
//! [`StudyResults`] assembles the per-worker slab statistics
//! into global ubiquitous fields — Sobol' index maps `S_k(x, t)`,
//! `ST_k(x, t)`, variance and mean maps — the quantities Figures 7 and 8 of
//! the paper visualise.  For a sharded study the worker states have
//! already been merged across shards, so the same accessors serve both
//! shapes.

use melissa_mesh::CellRange;

use crate::config::StudyConfig;
use crate::fault::FaultPlan;
use crate::report::StudyReport;
use crate::server::state::WorkerState;

/// A configured Melissa study.
pub struct Study {
    config: StudyConfig,
    faults: FaultPlan,
}

impl Study {
    /// Creates a study from a configuration.
    pub fn new(config: StudyConfig) -> Self {
        Self {
            config,
            faults: FaultPlan::none(),
        }
    }

    /// Scripts faults into the run (fault-tolerance experiments).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The configuration.
    pub fn config(&self) -> &StudyConfig {
        &self.config
    }

    /// Runs the study to completion under the launcher's supervision.
    pub fn run(self) -> Result<StudyOutput, String> {
        self.run_in(crate::launcher::StudyRuntime::default())
    }

    /// Runs the study on a caller-supplied transport instead of building
    /// one from [`StudyConfig::transport`].
    ///
    /// This is how an external observer shares the study's messaging
    /// fabric: bind a reply endpoint on the same transport and scrape the
    /// per-shard `telemetry/shard<k>` endpoints mid-run (see
    /// `melissa_telemetry::scrape`).  The run itself is identical to
    /// [`run`](Self::run) — scraping reads atomic snapshots off the
    /// ingest path, so statistics stay bit-identical.
    pub fn run_on(
        self,
        transport: std::sync::Arc<dyn melissa_transport::Transport>,
    ) -> Result<StudyOutput, String> {
        self.run_in(crate::launcher::StudyRuntime {
            transport: Some(transport),
            ..Default::default()
        })
    }

    /// Runs the study inside a caller-built
    /// [`StudyRuntime`](crate::launcher::StudyRuntime): shared transport,
    /// injected dispatcher, outer endpoint scope and external
    /// cancellation.  This is how the multi-tenant daemon hosts many
    /// concurrent studies on one node pool — each in its own scope, each
    /// cancellable — while the supervision machinery runs unchanged.
    /// With the default runtime this is exactly [`run`](Self::run).
    pub fn run_in(self, runtime: crate::launcher::StudyRuntime) -> Result<StudyOutput, String> {
        crate::launcher::run_study_in(self.config, self.faults, runtime)
    }
}

/// Everything a finished study produces.
pub struct StudyOutput {
    /// The assembled ubiquitous statistics.
    pub results: StudyResults,
    /// The launcher's accounting.
    pub report: StudyReport,
}

/// Global ubiquitous statistics assembled from the server workers' slabs.
pub struct StudyResults {
    p: usize,
    n_timesteps: usize,
    n_cells: usize,
    workers: Vec<WorkerState>,
}

impl StudyResults {
    /// Assembles results from the final worker states.
    pub fn from_worker_states(
        p: usize,
        n_timesteps: usize,
        n_cells: usize,
        workers: Vec<WorkerState>,
    ) -> Self {
        let covered: usize = workers.iter().map(|w| w.slab().len).sum();
        assert_eq!(covered, n_cells, "worker slabs do not cover the mesh");
        Self {
            p,
            n_timesteps,
            n_cells,
            workers,
        }
    }

    /// Number of parameters.
    pub fn dim(&self) -> usize {
        self.p
    }

    /// Number of timesteps.
    pub fn n_timesteps(&self) -> usize {
        self.n_timesteps
    }

    /// Number of mesh cells.
    pub fn n_cells(&self) -> usize {
        self.n_cells
    }

    /// Number of groups integrated at a timestep (minimum over workers —
    /// they can momentarily disagree mid-study, never at the end).
    pub fn groups_integrated(&self, ts: usize) -> u64 {
        self.workers
            .iter()
            .map(|w| w.groups_at(ts))
            .min()
            .unwrap_or(0)
    }

    fn assemble<F>(&self, per_worker: F) -> Vec<f64>
    where
        F: Fn(&WorkerState) -> Vec<f64>,
    {
        let mut out = vec![0.0; self.n_cells];
        for w in &self.workers {
            let CellRange { start, len } = w.slab();
            let vals = per_worker(w);
            debug_assert_eq!(vals.len(), len);
            out[start..start + len].copy_from_slice(&vals);
        }
        out
    }

    /// First-order Sobol' map `S_k(x)` at timestep `ts`.
    pub fn first_order_field(&self, ts: usize, k: usize) -> Vec<f64> {
        self.assemble(|w| w.sobol(ts).first_order_field(k))
    }

    /// Total-order Sobol' map `ST_k(x)` at timestep `ts`.
    pub fn total_order_field(&self, ts: usize, k: usize) -> Vec<f64> {
        self.assemble(|w| w.sobol(ts).total_order_field(k))
    }

    /// Output-variance map at timestep `ts` (the paper's Fig. 8
    /// co-visualisation).
    pub fn variance_field(&self, ts: usize) -> Vec<f64> {
        self.assemble(|w| w.sobol(ts).variance_field())
    }

    /// Output-mean map at timestep `ts`.
    pub fn mean_field(&self, ts: usize) -> Vec<f64> {
        self.assemble(|w| w.sobol(ts).mean_field())
    }

    /// Interaction-share map `1 − Σ_k S_k(x)` at timestep `ts`
    /// (paper Section 5.5 item 4).
    pub fn interaction_field(&self, ts: usize) -> Vec<f64> {
        self.assemble(|w| w.sobol(ts).interaction_field())
    }

    /// Per-cell skewness map over the `Y^A`/`Y^B` ensemble at `ts` (the
    /// "higher order moments" the paper suggests for uncertainty
    /// propagation studies, Section 4.1).
    pub fn skewness_field(&self, ts: usize) -> Vec<f64> {
        self.assemble(|w| w.moments(ts).skewness())
    }

    /// Per-cell excess-kurtosis map at `ts`.
    pub fn kurtosis_field(&self, ts: usize) -> Vec<f64> {
        self.assemble(|w| w.moments(ts).excess_kurtosis())
    }

    /// Per-cell ensemble minimum at `ts`.
    pub fn min_field(&self, ts: usize) -> Vec<f64> {
        self.assemble(|w| w.minmax(ts).min().to_vec())
    }

    /// Per-cell ensemble maximum at `ts`.
    pub fn max_field(&self, ts: usize) -> Vec<f64> {
        self.assemble(|w| w.minmax(ts).max().to_vec())
    }

    /// Per-cell exceedance probability `P(Y > thresholds[idx])` at `ts`.
    ///
    /// # Panics
    /// Panics if no threshold statistics were configured at index `idx`.
    pub fn threshold_probability_field(&self, ts: usize, idx: usize) -> Vec<f64> {
        self.assemble(|w| w.thresholds(ts)[idx].probability())
    }

    /// Per-cell quantile map for target probability `quantile_probs()[idx]`
    /// at `ts` — the median / percentile maps of the quantile follow-up
    /// paper (arXiv:1905.04180, Study 2).
    ///
    /// # Panics
    /// Panics if quantile statistics were not configured.
    pub fn quantile_field(&self, ts: usize, idx: usize) -> Vec<f64> {
        self.assemble(|w| {
            w.quantiles(ts)
                .expect("quantile statistics not configured")
                .quantile_field(idx)
        })
    }

    /// The tracked quantile target probabilities (empty when order
    /// statistics are disabled).
    pub fn quantile_probs(&self) -> &[f64] {
        self.workers
            .first()
            .and_then(|w| w.quantiles(0))
            .map(|q| q.probs())
            .unwrap_or(&[])
    }

    /// The per-worker states (advanced use: per-slab inspection).
    pub fn workers(&self) -> &[WorkerState] {
        &self.workers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn worker_with_data(id: usize, slab: CellRange) -> WorkerState {
        let mut st = WorkerState::new(id, slab, 2, 1);
        for g in 0..5u64 {
            for role in 0..4u16 {
                let vals: Vec<f64> = (0..slab.len)
                    .map(|i| (g as f64 + 1.0) * (role as f64 + 1.0) + i as f64)
                    .collect();
                st.on_data(g, role, 0, slab.start as u64, &vals);
            }
        }
        st
    }

    #[test]
    fn assembly_places_slabs_correctly() {
        let w0 = worker_with_data(0, CellRange { start: 0, len: 3 });
        let w1 = worker_with_data(1, CellRange { start: 3, len: 5 });
        let res = StudyResults::from_worker_states(2, 1, 8, vec![w0, w1]);
        let field = res.first_order_field(0, 0);
        assert_eq!(field.len(), 8);
        // Same data pattern shifted by slab start: verify against direct
        // worker values.
        let direct0 = res.workers()[0].sobol(0).first_order_field(0);
        let direct1 = res.workers()[1].sobol(0).first_order_field(0);
        assert_eq!(&field[0..3], direct0.as_slice());
        assert_eq!(&field[3..8], direct1.as_slice());
        assert_eq!(res.groups_integrated(0), 5);
    }

    #[test]
    #[should_panic(expected = "cover the mesh")]
    fn gaps_in_coverage_panic() {
        let w0 = worker_with_data(0, CellRange { start: 0, len: 3 });
        StudyResults::from_worker_states(2, 1, 8, vec![w0]);
    }

    #[test]
    fn quantile_maps_assemble_from_slabs() {
        let probs = [0.25, 0.5, 0.75];
        let fill = |id: usize, slab: CellRange| {
            let mut st = WorkerState::with_stats(id, slab, 2, 1, &[], &probs);
            for g in 0..5u64 {
                for role in 0..4u16 {
                    let vals: Vec<f64> = (0..slab.len)
                        .map(|i| (g as f64 + 1.0) * (role as f64 + 1.0) + i as f64)
                        .collect();
                    st.on_data(g, role, 0, slab.start as u64, &vals);
                }
            }
            st
        };
        let w0 = fill(0, CellRange { start: 0, len: 3 });
        let w1 = fill(1, CellRange { start: 3, len: 5 });
        let res = StudyResults::from_worker_states(2, 1, 8, vec![w0, w1]);
        assert_eq!(res.quantile_probs(), &probs);
        let median = res.quantile_field(0, 1);
        assert_eq!(median.len(), 8);
        let direct0 = res.workers()[0].quantiles(0).unwrap().quantile_field(1);
        let direct1 = res.workers()[1].quantiles(0).unwrap().quantile_field(1);
        assert_eq!(&median[0..3], direct0.as_slice());
        assert_eq!(&median[3..8], direct1.as_slice());
    }
}
