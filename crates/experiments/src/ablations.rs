//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! These go beyond the paper's evaluation: each ablation varies one knob of
//! the reproduction and reports how the APT-vs-MET comparison responds.
//! The artifacts print the *scientific* outputs (makespans, gains), not
//! host timings.

use crate::workloads::experiment_graphs;
use apt_core::prelude::*;
use apt_metrics::table::TextTable;

/// Mean APT and MET makespans (ms) over the ten Type-1 experiment graphs
/// under a custom lookup table and system.
fn apt_met_avg(lookup: &LookupTable, system: &SystemConfig, alpha: f64) -> (f64, f64) {
    let graphs = experiment_graphs(DfgType::Type1);
    let mut apt_total = 0.0;
    let mut met_total = 0.0;
    for g in &graphs {
        apt_total += simulate(g, system, lookup, &mut Apt::new(alpha))
            .expect("APT run")
            .makespan()
            .as_ms_f64();
        met_total += simulate(g, system, lookup, &mut Met::new())
            .expect("MET run")
            .makespan()
            .as_ms_f64();
    }
    let n = graphs.len() as f64;
    (apt_total / n, met_total / n)
}

fn gain(apt: f64, met: f64) -> String {
    format!("{:+.2}", (met - apt) / met * 100.0)
}

/// Fine α grid around the paper's coarse {1.5, 2, 4, 8, 16} sweep: where
/// exactly does `threshold_brk` sit, and how wide is the valley?
pub fn ablation_alpha_fine() -> TextTable {
    let mut t = TextTable::new(
        "Ablation: fine α grid (DFG Type-1, 4 GB/s, avg of 10 graphs)",
        &[
            "α",
            "APT avg makespan (ms)",
            "MET avg makespan (ms)",
            "gain (%)",
        ],
    );
    let lookup = LookupTable::paper();
    let system = SystemConfig::paper_4gbps();
    for alpha in [
        1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0,
    ] {
        let (apt, met) = apt_met_avg(lookup, &system, alpha);
        t.push_row(vec![
            format!("{alpha}"),
            format!("{apt:.1}"),
            format!("{met:.1}"),
            gain(apt, met),
        ]);
    }
    t
}

/// Shrinking the degree of heterogeneity: non-CPU columns blend toward the
/// CPU column. APT's edge must vanish as the system homogenizes — the
/// paper's core claim that "α values and the degree of heterogeneity go
/// hand-in-hand".
pub fn ablation_heterogeneity() -> TextTable {
    let mut t = TextTable::new(
        "Ablation: degree of heterogeneity (APT α=4 vs MET, DFG Type-1)",
        &["blend factor", "APT avg (ms)", "MET avg (ms)", "gain (%)"],
    );
    let system = SystemConfig::paper_4gbps();
    for factor in [1.0, 0.75, 0.5, 0.25, 0.1, 0.0] {
        let lookup = LookupTable::paper().scaled_heterogeneity(factor);
        let (apt, met) = apt_met_avg(&lookup, &system, 4.0);
        t.push_row(vec![
            format!("{factor}"),
            format!("{apt:.1}"),
            format!("{met:.1}"),
            gain(apt, met),
        ]);
    }
    t
}

/// The bytes-per-element convention (the one quantity the paper never
/// states). The headline must be robust to it.
pub fn ablation_bytes_per_element() -> TextTable {
    let mut t = TextTable::new(
        "Ablation: bytes per element (APT α=4 vs MET, DFG Type-1)",
        &["bytes/element", "APT avg (ms)", "MET avg (ms)", "gain (%)"],
    );
    let lookup = LookupTable::paper();
    for bytes in [0u64, 1, 4, 8, 16, 64] {
        let system = SystemConfig::paper_4gbps().with_bytes_per_element(bytes);
        let (apt, met) = apt_met_avg(lookup, &system, 4.0);
        t.push_row(vec![
            bytes.to_string(),
            format!("{apt:.1}"),
            format!("{met:.1}"),
            gain(apt, met),
        ]);
    }
    t
}

/// Scaling the machine: more device sets reduce contention for `p_min`, so
/// the threshold should matter less.
pub fn ablation_processor_count() -> TextTable {
    let mut t = TextTable::new(
        "Ablation: processor count (APT α=4 vs MET, DFG Type-1)",
        &["machine", "APT avg (ms)", "MET avg (ms)", "gain (%)"],
    );
    let lookup = LookupTable::paper();
    for sets in 1usize..=3 {
        let mut system = SystemConfig::empty(LinkRate::PCIE2_X8);
        for _ in 0..sets {
            system = system
                .with_proc(ProcKind::Cpu)
                .with_proc(ProcKind::Gpu)
                .with_proc(ProcKind::Fpga);
        }
        let (apt, met) = apt_met_avg(lookup, &system, 4.0);
        t.push_row(vec![
            format!("{sets}x(CPU+GPU+FPGA)"),
            format!("{apt:.1}"),
            format!("{met:.1}"),
            gain(apt, met),
        ]);
    }
    t
}

/// APT vs APT-R (the paper's future-work refinement) across α.
pub fn ablation_apt_r() -> TextTable {
    let mut t = TextTable::new(
        "Ablation: APT vs APT-R (DFG Type-1, 4 GB/s, avg of 10 graphs)",
        &[
            "α",
            "APT avg (ms)",
            "APT-R avg (ms)",
            "APT-R gain over APT (%)",
        ],
    );
    let lookup = LookupTable::paper();
    let system = SystemConfig::paper_4gbps();
    let graphs = experiment_graphs(DfgType::Type1);
    for &alpha in &PAPER_ALPHAS {
        let mut apt_total = 0.0;
        let mut aptr_total = 0.0;
        for g in &graphs {
            apt_total += simulate(g, &system, lookup, &mut Apt::new(alpha))
                .expect("APT")
                .makespan()
                .as_ms_f64();
            aptr_total += simulate(g, &system, lookup, &mut AptR::new(alpha))
                .expect("APT-R")
                .makespan()
                .as_ms_f64();
        }
        let n = graphs.len() as f64;
        let (apt, aptr) = (apt_total / n, aptr_total / n);
        t.push_row(vec![
            format!("{alpha}"),
            format!("{apt:.1}"),
            format!("{aptr:.1}"),
            gain(aptr, apt),
        ]);
    }
    t
}

/// Energy comparison — the paper's power-efficiency motivation, quantified.
/// Average busy/idle/total joules per policy over the ten Type-1 graphs
/// (default TDP-class power model; APT at α = 4).
pub fn ablation_energy() -> TextTable {
    use apt_metrics::energy::{energy_report, PowerModel};
    let mut t = TextTable::new(
        "Ablation: schedule energy (avg J over 10 Type-1 graphs, default power model)",
        &["Policy", "Busy (J)", "Idle (J)", "Total (J)"],
    );
    let lookup = LookupTable::paper();
    let system = SystemConfig::paper_4gbps();
    let graphs = experiment_graphs(DfgType::Type1);
    let model = PowerModel::default();
    for (name, make) in apt_core::all_policy_factories(4.0) {
        if matches!(name.as_str(), "SPN" | "SS" | "AG") {
            continue; // their makespans dwarf the plot; covered by tables 8-10
        }
        let (mut busy, mut idle, mut total) = (0.0, 0.0, 0.0);
        for g in &graphs {
            let mut p = make();
            let res = simulate(g, &system, lookup, p.as_mut()).expect("energy run");
            let e = energy_report(&res.trace, &system, &model);
            busy += e.busy_joules;
            idle += e.idle_joules;
            total += e.total_joules();
        }
        let n = graphs.len() as f64;
        t.push_row(vec![
            name,
            format!("{:.0}", busy / n),
            format!("{:.0}", idle / n),
            format!("{:.0}", total / n),
        ]);
    }
    t
}

/// Schedule quality — SLR and distance to the makespan lower bound, per
/// policy, averaged over the ten Type-1 graphs (APT at α = 4).
pub fn ablation_quality() -> TextTable {
    use apt_metrics::quality::quality_report;
    let mut t = TextTable::new(
        "Ablation: schedule quality (avg over 10 Type-1 graphs)",
        &[
            "Policy",
            "SLR",
            "Makespan / lower bound",
            "Speedup vs best serial",
        ],
    );
    let lookup = LookupTable::paper();
    let system = SystemConfig::paper_4gbps();
    let graphs = experiment_graphs(DfgType::Type1);
    for (name, make) in apt_core::all_policy_factories(4.0) {
        let (mut slr, mut gap, mut speedup) = (0.0, 0.0, 0.0);
        for g in &graphs {
            let mut p = make();
            let res = simulate(g, &system, lookup, p.as_mut()).expect("quality run");
            let q = quality_report(&res.trace, g, lookup, &system).expect("report");
            slr += q.slr;
            gap += q.makespan.as_ns() as f64 / q.lower_bound.as_ns().max(1) as f64;
            speedup += q.speedup;
        }
        let n = graphs.len() as f64;
        t.push_row(vec![
            name,
            format!("{:.2}", slr / n),
            format!("{:.2}", gap / n),
            format!("{:.2}", speedup / n),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_table_favors_apt_over_met() {
        let t = ablation_energy();
        let row = |name: &str| -> f64 {
            t.rows()
                .iter()
                .find(|r| r[0] == name)
                .map(|r| r[3].parse().unwrap())
                .unwrap()
        };
        // Less idle waiting = less energy: APT(α=4) must not burn more than MET.
        assert!(
            row("APT") <= row("MET"),
            "APT {} vs MET {}",
            row("APT"),
            row("MET")
        );
    }

    #[test]
    fn quality_table_bounds_hold_for_all_policies() {
        let t = ablation_quality();
        for r in t.rows() {
            let gap: f64 = r[2].parse().unwrap();
            assert!(gap >= 1.0, "{} below lower bound: {gap}", r[0]);
            let slr: f64 = r[1].parse().unwrap();
            assert!(slr >= 1.0);
        }
    }

    #[test]
    fn heterogeneity_collapse_kills_the_gain() {
        let t = ablation_heterogeneity();
        assert_eq!(t.row_count(), 6);
        // At full heterogeneity (row 0) APT has a healthy positive gain.
        let full: f64 = t.rows()[0][3].parse().unwrap();
        // At zero heterogeneity (last row) APT ≈ MET: |gain| small.
        let flat: f64 = t.rows()[5][3].parse().unwrap();
        assert!(full > 5.0, "full-heterogeneity gain {full} too small");
        assert!(flat.abs() < 1.0, "homogeneous gain {flat} should vanish");
    }

    #[test]
    fn headline_is_robust_to_bytes_per_element() {
        let t = ablation_bytes_per_element();
        for row in t.rows() {
            let gain: f64 = row[3].parse().unwrap();
            assert!(
                gain > 0.0,
                "APT(α=4) lost to MET at {} bytes/element",
                row[0]
            );
        }
    }

    #[test]
    fn more_processors_shrink_the_threshold_benefit() {
        let t = ablation_processor_count();
        let one: f64 = t.rows()[0][3].parse().unwrap();
        let three: f64 = t.rows()[2][3].parse().unwrap();
        assert!(
            three < one,
            "gain should shrink with more devices: 1 set {one}%, 3 sets {three}%"
        );
    }
}
