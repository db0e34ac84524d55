//! APT-R — the paper's future-work refinement.
//!
//! Conclusion (§5): "In the future, we will consider the remaining execution
//! time in the optimal processor before deciding whether to assign to an
//! alternative processor, as part of the scheduling heuristic, which will
//! improve our current savings."
//!
//! APT admits `p_alt` whenever its cost is within `α·x`, even when `p_min`
//! is about to free up — occasionally paying (cost_alt − x) for nothing.
//! APT-R adds the obvious fix: an alternative is taken only when it also
//! beats *waiting*, i.e.
//!
//! ```text
//! cost_alt ≤ α·x                 (the APT threshold, Eq. 8)
//! cost_alt <  remaining(p_min) + transfer(p_min) + x   (waiting estimate)
//! ```
//!
//! where `remaining(p_min)` is how long the optimal processor stays busy.
//! The `ablation-aptr` artifact quantifies the improvement this buys.
//!
//! Like MET and APT, APT-R emits its whole per-instant fixpoint in one
//! `decide` pass. APT-R additionally reads `busy_until`, which *does*
//! change within the instant for processors the batch itself claims — so
//! the pass tracks a local finish estimate per claimed processor, computed
//! with exactly the engine's `start = now, finish = now + transfer + exec`
//! arithmetic. Byte-identical to the one-assignment-per-call form (pinned
//! by the engine-equivalence suite).

use crate::apt::checked_alpha;
use apt_base::{BaseError, ProcId, SimDuration, SimTime};
use apt_hetsim::{Assignment, AssignmentBuf, DecisionMeta, Policy, PolicyKind, SimView};
use apt_policies::common::best_instance_in;

/// APT with remaining-time awareness (future-work heuristic).
#[derive(Debug, Clone, Copy)]
pub struct AptR {
    alpha: f64,
}

impl AptR {
    /// Create an APT-R scheduler with flexibility factor `α ≥ 1`.
    /// Panics otherwise, like [`crate::Apt::new`].
    pub fn new(alpha: f64) -> Self {
        // apt-lint: allow(hot-path-panic, construction-time config check; try_new is the typed path)
        AptR::try_new(alpha).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`AptR::new`], returning [`BaseError::InvalidConfig`] for a
    /// non-finite α or one below 1 instead of panicking.
    pub fn try_new(alpha: f64) -> Result<Self, BaseError> {
        Ok(AptR {
            alpha: checked_alpha("APT-R", alpha)?,
        })
    }

    /// The configured flexibility factor.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl Policy for AptR {
    fn name(&self) -> String {
        format!("APT-R(α={})", self.alpha)
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::Dynamic
    }

    fn decide(&mut self, view: &SimView<'_>, out: &mut AssignmentBuf) {
        // Batched per-instant pass (module docs): `idle` carries this
        // batch's claims; `claimed_until` carries the finish instants of
        // kernels the batch already started, so the waiting estimate for a
        // just-claimed p_min matches what the engine's refreshed view would
        // have shown.
        let mut idle = view.idle_mask;
        let mut claimed_until = [SimTime::ZERO; 64];
        let mut claimed: u64 = 0;
        // The engine's start arithmetic for a kernel claimed at this
        // instant: start = now, finish = now + transfer + exec.
        let finish_of = |node, proc: ProcId, view: &SimView<'_>| {
            view.now
                + view.transfer_in_time(node, proc)
                // apt-lint: allow(hot-path-panic, the claim mask is restricted to processors
                // that can run the node)
                + view.exec_time(node, proc).expect("claimed proc runs node")
        };
        for node in view.ready.iter() {
            if idle == 0 {
                break; // every processor claimed: nothing left this instant
            }
            let Some(best) = best_instance_in(view, node, idle) else {
                continue;
            };
            if best.idle {
                claimed_until[best.proc.index()] = finish_of(node, best.proc, view);
                claimed |= 1 << best.proc.index();
                idle &= !(1 << best.proc.index());
                out.push(Assignment::new(node, best.proc));
                continue;
            }
            let threshold = best.exec.scale_alpha(self.alpha);
            // Cost of waiting for p_min: remaining busy time + placement.
            let busy_until = if claimed & (1 << best.proc.index()) != 0 {
                claimed_until[best.proc.index()]
            } else {
                view.proc(best.proc).busy_until
            };
            let remaining = busy_until.saturating_since(view.now);
            let wait_cost = remaining
                .saturating_add(view.transfer_in_time(node, best.proc))
                .saturating_add(best.exec);
            // Cheapest still-idle alternative.
            let mut alt: Option<(ProcId, SimDuration)> = None;
            let mut bits = idle;
            while bits != 0 {
                let p = ProcId::new(bits.trailing_zeros() as usize);
                bits &= bits - 1;
                if p == best.proc {
                    continue;
                }
                if let Some(cost) = view.placement_cost(node, p) {
                    if alt.is_none_or(|(_, c)| cost < c) {
                        alt = Some((p, cost));
                    }
                }
            }
            if let Some((proc, cost)) = alt {
                if cost <= threshold && cost < wait_cost {
                    claimed_until[proc.index()] = finish_of(node, proc, view);
                    claimed |= 1 << proc.index();
                    idle &= !(1 << proc.index());
                    out.push_explained(
                        Assignment::alternative(node, proc),
                        DecisionMeta {
                            best_proc: best.proc,
                            best_exec: best.exec,
                            best_busy_until: busy_until,
                            threshold,
                            alt_cost: cost,
                        },
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Apt;
    use apt_base::SimTime;
    use apt_dfg::generator::{build_type1, generate_kernels, StreamConfig};
    use apt_dfg::{Kernel, KernelKind, LookupTable, NodeId};
    use apt_hetsim::{simulate, SystemConfig};

    fn bfs() -> Kernel {
        Kernel::canonical(KernelKind::Bfs)
    }
    fn cd() -> Kernel {
        Kernel::new(KernelKind::Cholesky, 250_000)
    }

    #[test]
    #[should_panic(expected = "α ≥ 1")]
    fn alpha_below_one_is_rejected() {
        let _ = AptR::new(0.0);
    }

    #[test]
    fn apt_r_waits_when_p_min_frees_soon() {
        // cd's p_min is the FPGA (0.093 ms). Occupy the FPGA with a bfs
        // (106 ms): plain APT at α = 16⁴ would jump to the GPU (2.749 ms ≤
        // threshold), but cd is so short that even waiting 106 ms… actually
        // waiting costs 106.093 vs alternative 2.749 — the alternative *is*
        // better here. Invert the scenario: occupy the FPGA with cd (0.093)
        // and schedule bfs. Waiting costs 0.093 + 106; the GPU alternative
        // costs 173. APT(α=2) takes the GPU; APT-R correctly waits.
        let dfg = build_type1(&[cd(), bfs(), bfs()]);
        let cfg = SystemConfig::paper_no_transfers();
        let lookup = LookupTable::paper();

        let plain = simulate(&dfg, &cfg, lookup, &mut Apt::new(2.0)).unwrap();
        let refined = simulate(&dfg, &cfg, lookup, &mut AptR::new(2.0)).unwrap();

        // Plain APT sends the first bfs to the GPU (alt).
        let b_plain = plain.trace.record(NodeId::new(1)).unwrap();
        assert!(b_plain.alt);
        assert_eq!(cfg.kind_of(b_plain.proc), apt_base::ProcKind::Gpu);

        // APT-R waits 0.093 ms and runs it on the FPGA.
        let b_ref = refined.trace.record(NodeId::new(1)).unwrap();
        assert!(!b_ref.alt);
        assert_eq!(cfg.kind_of(b_ref.proc), apt_base::ProcKind::Fpga);
        assert_eq!(b_ref.start, SimTime::from_us(93));

        // And the refined makespan is no worse.
        assert!(refined.makespan() <= plain.makespan());
    }

    #[test]
    fn apt_r_still_takes_good_alternatives() {
        // Figure-5 style: FPGA busy 106 ms with bfs; the second bfs's
        // alternative (GPU, 173) beats waiting (106 + 106 = 212) and sits
        // within α = 8 × 106 — APT-R takes it just like APT.
        let dfg = build_type1(&[bfs(), bfs(), cd()]);
        let cfg = SystemConfig::paper_no_transfers();
        let res = simulate(&dfg, &cfg, LookupTable::paper(), &mut AptR::new(8.0)).unwrap();
        let second = res.trace.record(NodeId::new(1)).unwrap();
        assert!(second.alt);
        assert_eq!(cfg.kind_of(second.proc), apt_base::ProcKind::Gpu);
    }

    #[test]
    fn apt_r_is_never_catastrophically_worse_than_apt() {
        // Across seeds, APT-R stays within 25 % of APT (usually better);
        // both produce valid schedules.
        for seed in [2u64, 31, 57] {
            let kernels = generate_kernels(&StreamConfig::new(70, seed), LookupTable::paper());
            let dfg = build_type1(&kernels);
            let cfg = SystemConfig::paper_4gbps();
            let a = simulate(&dfg, &cfg, LookupTable::paper(), &mut Apt::new(4.0)).unwrap();
            let r = simulate(&dfg, &cfg, LookupTable::paper(), &mut AptR::new(4.0)).unwrap();
            r.trace.validate(&dfg).unwrap();
            let ratio = r.makespan().as_ns() as f64 / a.makespan().as_ns().max(1) as f64;
            assert!(ratio < 1.25, "seed {seed}: APT-R {ratio}× of APT");
        }
    }

    #[test]
    fn name_includes_alpha() {
        assert_eq!(AptR::new(4.0).name(), "APT-R(α=4)");
    }
}
