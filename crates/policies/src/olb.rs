//! OLB — opportunistic load balancing (Braun et al.).
//!
//! Mentioned in the paper's related work (§2.1): OLB assigns the next kernel
//! to the next available processor "without considering the execution time
//! of each task on the given hardware platform". SPN was proposed as the
//! improvement over it. OLB is included here as an extra baseline for the
//! fault sweep; it does not appear in the paper's result tables.

use apt_hetsim::{Assignment, AssignmentBuf, Policy, PolicyKind, SimView};

/// The OLB policy. Keeps a rotating cursor over processors so load spreads
/// round-robin across available devices.
#[derive(Debug, Default, Clone, Copy)]
pub struct Olb {
    cursor: usize,
}

impl Olb {
    /// Create an OLB scheduler.
    pub const fn new() -> Self {
        Olb { cursor: 0 }
    }
}

impl Policy for Olb {
    fn name(&self) -> String {
        "OLB".into()
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::Dynamic
    }

    fn decide(&mut self, view: &SimView<'_>, out: &mut AssignmentBuf) {
        let n = view.procs.len();
        for node in view.ready.iter() {
            // Next available processor starting from the cursor, skipping
            // devices that cannot run the kernel at all.
            for off in 0..n {
                let idx = (self.cursor + off) % n;
                let p = &view.procs[idx];
                if p.is_idle() && view.exec_time(node, p.id).is_some() {
                    self.cursor = (idx + 1) % n;
                    out.push(Assignment::new(node, p.id));
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_base::ProcId;
    use apt_dfg::generator::build_type1;
    use apt_dfg::{Kernel, KernelKind, LookupTable};
    use apt_hetsim::{simulate, SystemConfig};

    #[test]
    fn olb_round_robins_over_processors() {
        let kernels = vec![Kernel::canonical(KernelKind::Bfs); 4];
        let dfg = build_type1(&kernels);
        let res = simulate(
            &dfg,
            &SystemConfig::paper_no_transfers(),
            LookupTable::paper(),
            &mut Olb::new(),
        )
        .unwrap();
        res.trace.validate(&dfg).unwrap();
        // Three level-1 kernels land on p0, p1, p2 in order.
        let mut level1: Vec<(u32, ProcId)> = res
            .trace
            .records
            .iter()
            .filter(|r| r.start.as_ns() == 0)
            .map(|r| (r.node.0, r.proc))
            .collect();
        level1.sort_unstable();
        assert_eq!(
            level1,
            vec![
                (0, ProcId::new(0)),
                (1, ProcId::new(1)),
                (2, ProcId::new(2))
            ]
        );
    }

    #[test]
    fn olb_ignores_execution_times_entirely() {
        // A lone gem goes to whichever processor the cursor points at (p0 =
        // CPU), not the GPU.
        let dfg = build_type1(&[Kernel::canonical(KernelKind::Gem)]);
        let res = simulate(
            &dfg,
            &SystemConfig::paper_no_transfers(),
            LookupTable::paper(),
            &mut Olb::new(),
        )
        .unwrap();
        assert_eq!(res.trace.records[0].proc, ProcId::new(0));
    }
}
