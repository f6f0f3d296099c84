//! Output checks: every run's statistics against a reference.
//!
//! The reference of a study workload is the in-process, single-shard,
//! sequential fold of the same seeded design, computed here from public
//! entry points only: `DecomposedSimulation::advance` produces the
//! fields, the solver's rank chunks are split along the server's slab
//! partition exactly as the client splits them, and each worker's chunks
//! go through `WorkerState::on_data` in group order.  Timing the
//! `advance` calls alone gives the no-output solver time of the same
//! design rows.
//!
//! What must match (ARCHITECTURE.md invariants 5–6):
//!
//! * min/max envelope, threshold exceedance and group counts — bit for
//!   bit, on every workload;
//! * Sobol' and moment accumulators — bit for bit on `tube_seq` (the
//!   reference's own shape), else within pairwise-merge rounding;
//! * quantiles — bit for bit on `tube_seq`; skipped where shards are
//!   merged or groups interleave (the Robbins–Monro update is
//!   order-dependent, so those runs are not a reordering of the same
//!   arithmetic).

use std::sync::Arc;
use std::time::Instant;

use melissa::server::state::WorkerState;
use melissa::{StudyConfig, StudyResults};
use melissa_mesh::SlabPartition;
use melissa_sobol::design::PickFreeze;
use melissa_solver::decomposed::DecomposedSimulation;
use melissa_solver::InjectionParams;

/// How closely a run must agree with the reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agreement {
    /// Every family bit for bit.
    Exact,
    /// Order-exact families bit for bit; Sobol'/moments within rounding;
    /// quantiles not compared.
    Merged,
}

/// The reference statistics and the no-output solver time per group.
pub struct Reference {
    /// Reference statistics, on the study's worker partition.
    pub results: StudyResults,
    /// Seconds of `advance` calls per group (all `p + 2` simulations).
    pub solver_s: Vec<f64>,
}

/// Computes the reference of a study configuration.
pub fn reference(config: &StudyConfig) -> Reference {
    let space = InjectionParams::parameter_space();
    let p = space.dim();
    let design = PickFreeze::generate(config.n_groups, &space, config.seed);
    let flow = Arc::new(config.solver.prerun());
    let n_cells = config.solver.mesh().n_cells();
    let n_ts = config.solver.n_timesteps;
    let partition = SlabPartition::new(n_cells, config.server_workers);
    let mut states: Vec<WorkerState> = (0..config.server_workers)
        .map(|w| {
            WorkerState::with_stats(
                w,
                partition.worker_range(w),
                p,
                n_ts,
                &config.thresholds,
                &config.quantile_probs,
            )
        })
        .collect();
    let mut solver_s = Vec::with_capacity(config.n_groups);
    for g in 0..config.n_groups {
        let mut sims: Vec<DecomposedSimulation> = design
            .group(g)
            .rows()
            .iter()
            .map(|row| {
                DecomposedSimulation::new(
                    &config.solver,
                    Arc::clone(&flow),
                    InjectionParams::from_row(row),
                    config.ranks_per_simulation,
                )
            })
            .collect();
        let mut solving = 0.0;
        for ts in 0..n_ts {
            let t = Instant::now();
            for sim in &mut sims {
                sim.advance();
            }
            solving += t.elapsed().as_secs_f64();
            for rank in 0..config.ranks_per_simulation {
                for (role, sim) in sims.iter().enumerate() {
                    for (range, values) in sim.rank_chunks(rank) {
                        for (w, sub) in partition.redistribution(range) {
                            let off = sub.start - range.start;
                            states[w].on_data(
                                g as u64,
                                role as u16,
                                ts as u32,
                                sub.start as u64,
                                &values[off..off + sub.len],
                            );
                        }
                    }
                }
            }
        }
        solver_s.push(solving);
    }
    Reference {
        results: StudyResults::from_worker_states(p, n_ts, n_cells, states),
        solver_s,
    }
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// `a` and `b` agree to pairwise-merge rounding: each element within
/// 1e-9 of the larger magnitude, plus 1e-9 of the array's largest
/// magnitude (accumulators that cancel to ~0 carry absolute rounding).
fn close(a: &[f64], b: &[f64]) -> bool {
    let scale = b.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x - y).abs() <= 1e-9 * (x.abs().max(y.abs()) + scale))
}

/// Checks a run's statistics against the reference.  `n_groups` groups
/// must be integrated at every timestep.
pub fn compare(
    got: &StudyResults,
    want: &StudyResults,
    n_groups: u64,
    agreement: Agreement,
) -> Result<(), String> {
    if got.workers().len() != want.workers().len() {
        return Err("worker count differs from the reference".into());
    }
    for ts in 0..want.n_timesteps() {
        if got.groups_integrated(ts) != n_groups {
            return Err(format!(
                "timestep {ts}: {} groups integrated, expected {n_groups}",
                got.groups_integrated(ts)
            ));
        }
    }
    for (gw, ww) in got.workers().iter().zip(want.workers()) {
        let w = ww.worker_id();
        if gw.slab() != ww.slab() {
            return Err(format!("worker {w}: slab differs from the reference"));
        }
        let mut a = gw.finished_groups().to_vec();
        let mut b = ww.finished_groups().to_vec();
        a.sort_unstable();
        b.sort_unstable();
        if a != b {
            return Err(format!("worker {w}: finished groups differ"));
        }
        for ts in 0..want.n_timesteps() {
            let at = |family: &str| format!("worker {w}, timestep {ts}: {family} differs");
            if gw.groups_at(ts) != ww.groups_at(ts) {
                return Err(at("group count"));
            }
            let (gn, gmin, gmax) = gw.minmax(ts).raw_state();
            let (wn, wmin, wmax) = ww.minmax(ts).raw_state();
            if gn != wn || !same_bits(gmin, wmin) || !same_bits(gmax, wmax) {
                return Err(at("min/max envelope"));
            }
            for (gt, wt) in gw.thresholds(ts).iter().zip(ww.thresholds(ts)) {
                if gt.raw_state() != wt.raw_state() {
                    return Err(at("threshold exceedance"));
                }
            }
            let (gs_n, gs) = gw.sobol(ts).pack();
            let (ws_n, ws) = ww.sobol(ts).pack();
            let (gm_n, gm1, gm2, gm3, gm4) = gw.moments(ts).raw_state();
            let (wm_n, wm1, wm2, wm3, wm4) = ww.moments(ts).raw_state();
            if gs_n != ws_n || gm_n != wm_n {
                return Err(at("Sobol'/moment sample count"));
            }
            let pairs = [
                (&gs[..], &ws[..]),
                (gm1, wm1),
                (gm2, wm2),
                (gm3, wm3),
                (gm4, wm4),
            ];
            match agreement {
                Agreement::Exact => {
                    if !pairs.iter().all(|(x, y)| same_bits(x, y)) {
                        return Err(at("Sobol'/moment state (bit-exact)"));
                    }
                    let gq = gw.quantiles(ts).map(|q| q.raw_state());
                    let wq = ww.quantiles(ts).map(|q| q.raw_state());
                    let q_same = match (gq, wq) {
                        (Some((gn, gg, ga, gb)), Some((wn, wg, wa, wb))) => {
                            gn == wn
                                && gg.to_bits() == wg.to_bits()
                                && same_bits(ga, wa)
                                && same_bits(gb, wb)
                        }
                        (None, None) => true,
                        _ => false,
                    };
                    if !q_same {
                        return Err(at("quantile state (bit-exact)"));
                    }
                }
                Agreement::Merged => {
                    if !pairs.iter().all(|(x, y)| close(x, y)) {
                        return Err(at("Sobol'/moment state (beyond merge rounding)"));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Checks the `ingest_replay` envelope against the one computed from the
/// frames the generator sent.
pub fn compare_envelope(
    got: &StudyResults,
    envelope: impl Fn(usize) -> (Vec<f64>, Vec<f64>),
    n_groups: u64,
) -> Result<(), String> {
    for ts in 0..got.n_timesteps() {
        if got.groups_integrated(ts) != n_groups {
            return Err(format!(
                "timestep {ts}: {} groups integrated, expected {n_groups}",
                got.groups_integrated(ts)
            ));
        }
        let (lo, hi) = envelope(ts);
        if !same_bits(&got.min_field(ts), &lo) || !same_bits(&got.max_field(ts), &hi) {
            return Err(format!(
                "timestep {ts}: envelope differs from the frames sent"
            ));
        }
    }
    Ok(())
}

/// A 64-bit digest of every statistic family's raw state (FNV-1a over
/// the bit patterns), to show repeated runs bit-identical.
pub fn digest(results: &StudyResults) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    let eat_all = |vals: &[f64], eat: &mut dyn FnMut(u64)| {
        for v in vals {
            eat(v.to_bits());
        }
    };
    for w in results.workers() {
        for ts in 0..results.n_timesteps() {
            eat(w.groups_at(ts));
            let (n, flat) = w.sobol(ts).pack();
            eat(n);
            eat_all(&flat, &mut eat);
            let (n, m1, m2, m3, m4) = w.moments(ts).raw_state();
            eat(n);
            for m in [m1, m2, m3, m4] {
                eat_all(m, &mut eat);
            }
            let (n, lo, hi) = w.minmax(ts).raw_state();
            eat(n);
            eat_all(lo, &mut eat);
            eat_all(hi, &mut eat);
            for t in w.thresholds(ts) {
                let (_, n, exceeded) = t.raw_state();
                eat(n);
                for &e in exceeded {
                    eat(e);
                }
            }
            if let Some(q) = w.quantiles(ts) {
                let (n, _, a, b) = q.raw_state();
                eat(n);
                eat_all(a, &mut eat);
                eat_all(b, &mut eat);
            }
        }
    }
    h
}
