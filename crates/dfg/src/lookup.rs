//! The measured-execution-time lookup table (Appendix A, Table 14).
//!
//! The scheduler "has access to a lookup table which has real execution times
//! of a variety of kernels ... for multiple data sizes on the different
//! processors" (§3.2). This module embeds the complete published table.
//! Values are milliseconds in the thesis; they are stored as exact
//! fixed-point [`SimDuration`]s.
//!
//! The table is also the place where the *degree of heterogeneity* of the
//! system lives: the ratio between a kernel's best and worst execution time
//! across categories is what APT's threshold `α·x` trades against.

use crate::kernel::{Kernel, KernelKind};
use apt_base::{BaseError, ProcKind, SimDuration};
use std::sync::OnceLock;

/// The seven data sizes at which the linear-algebra kernels (MM, MI, CD) were
/// measured (element counts; e.g. `698896 = 836 × 836`).
pub const MM_MI_CD_SIZES: [u64; 7] = [
    250_000, 698_896, 1_000_000, 4_000_000, 16_000_000, 36_000_000, 64_000_000,
];

/// One row of Table 14: a kernel at a data size with its measured times on
/// the three evaluated categories `[CPU, GPU, FPGA]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupRow {
    /// Kernel type.
    pub kind: KernelKind,
    /// Data size (element count).
    pub data_size: u64,
    /// Execution times in lookup-table column order (CPU, GPU, FPGA).
    pub times: [SimDuration; 3],
}

impl LookupRow {
    /// Execution time on one category, if measured.
    pub fn time_on(&self, proc: ProcKind) -> Option<SimDuration> {
        proc.table_column().map(|c| self.times[c])
    }
}

/// An execution-time lookup table: `(kernel, data size) → per-category time`.
///
/// [`LookupTable::paper`] returns the embedded Appendix-A table; custom
/// tables can be built for ablations via [`LookupTable::from_rows`] or
/// derived via [`LookupTable::scaled_heterogeneity`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookupTable {
    rows: Vec<LookupRow>,
    /// Per-kind `(data_size, row index)` lists, sorted by size. A kind has at
    /// most seven measured sizes, so a binary search over a dense array beats
    /// the `BTreeMap<(kind, size), _>` this replaced by a wide margin on the
    /// simulator's row-resolution path.
    index: [Vec<(u64, usize)>; KernelKind::ALL.len()],
}

/// Appendix-A data, `(kernel, size, cpu_ms, gpu_ms, fpga_ms)`, in the row
/// order of Table 14.
const PAPER_ROWS: &[(KernelKind, u64, f64, f64, f64)] = &[
    (KernelKind::MatMul, 250_000, 29.631, 0.062, 149.011),
    (KernelKind::MatMul, 698_896, 131.183, 0.061, 696.512),
    (KernelKind::MatMul, 1_000_000, 220.806, 0.061, 1_192.092),
    (KernelKind::MatMul, 4_000_000, 259.291, 0.062, 9_536.743),
    (KernelKind::MatMul, 16_000_000, 1_967.286, 0.061, 76_293.945),
    (
        KernelKind::MatMul,
        36_000_000,
        6_676.706,
        0.106,
        257_492.065,
    ),
    (
        KernelKind::MatMul,
        64_000_000,
        15_487.652,
        0.147,
        610_351.562,
    ),
    (KernelKind::MatInv, 250_000, 42.952, 9.652, 24.247),
    (KernelKind::MatInv, 698_896, 148.387, 22.352, 110.597),
    (KernelKind::MatInv, 1_000_000, 235.810, 29.078, 188.188),
    (KernelKind::MatInv, 4_000_000, 432.330, 129.156, 1_482.717),
    (
        KernelKind::MatInv,
        16_000_000,
        40_636.878,
        596.582,
        11_770.520,
    ),
    (
        KernelKind::MatInv,
        36_000_000,
        133_917.655,
        1_702.537,
        39_623.932,
    ),
    (
        KernelKind::MatInv,
        64_000_000,
        312_902.299,
        3_600.423,
        93_802.080,
    ),
    (KernelKind::Cholesky, 250_000, 17.064, 2.749, 0.093),
    (KernelKind::Cholesky, 698_896, 86.585, 4.940, 0.258),
    (KernelKind::Cholesky, 1_000_000, 6.284, 6.453, 0.361),
    (KernelKind::Cholesky, 4_000_000, 86.585, 21.219, 1.382),
    (KernelKind::Cholesky, 16_000_000, 60.806, 90.581, 5.407),
    (KernelKind::Cholesky, 36_000_000, 132.677, 220.819, 12.194),
    (KernelKind::Cholesky, 64_000_000, 307.539, 458.603, 21.543),
    (KernelKind::NeedlemanWunsch, 16_777_216, 112.0, 146.0, 397.0),
    (KernelKind::Bfs, 2_034_736, 332.0, 173.0, 106.0),
    (KernelKind::Srad, 134_217_728, 5_092.0, 1_600.0, 92_287.0),
    (KernelKind::Gem, 2_070_376, 21_592.0, 4_001.0, 585_760.0),
];

impl LookupTable {
    /// The complete published lookup table (Table 14).
    pub fn paper() -> &'static LookupTable {
        static TABLE: OnceLock<LookupTable> = OnceLock::new();
        TABLE.get_or_init(|| {
            LookupTable::from_rows(PAPER_ROWS.iter().map(|&(kind, size, cpu, gpu, fpga)| {
                LookupRow {
                    kind,
                    data_size: size,
                    times: [
                        SimDuration::from_table_ms(cpu),
                        SimDuration::from_table_ms(gpu),
                        SimDuration::from_table_ms(fpga),
                    ],
                }
            }))
        })
    }

    /// Build a table from explicit rows. Later duplicates replace earlier ones.
    pub fn from_rows(rows: impl IntoIterator<Item = LookupRow>) -> LookupTable {
        let mut table = LookupTable {
            rows: Vec::new(),
            index: Default::default(),
        };
        for row in rows {
            table.insert(row);
        }
        table
    }

    /// Insert or replace a row.
    pub fn insert(&mut self, row: LookupRow) {
        let sizes = &mut self.index[row.kind.index()];
        match sizes.binary_search_by_key(&row.data_size, |&(s, _)| s) {
            Ok(pos) => self.rows[sizes[pos].1] = row,
            Err(pos) => {
                sizes.insert(pos, (row.data_size, self.rows.len()));
                self.rows.push(row);
            }
        }
    }

    /// Row index for a `(kind, size)` pair, if present.
    #[inline]
    fn row_index(&self, kind: KernelKind, data_size: u64) -> Option<usize> {
        let sizes = &self.index[kind.index()];
        sizes
            .binary_search_by_key(&data_size, |&(s, _)| s)
            .ok()
            .map(|pos| sizes[pos].1)
    }

    /// All rows, in insertion (Table 14) order.
    pub fn rows(&self) -> &[LookupRow] {
        &self.rows
    }

    /// The row for a kernel instance.
    pub fn row(&self, kernel: &Kernel) -> Result<&LookupRow, BaseError> {
        self.row_index(kernel.kind, kernel.data_size)
            .map(|i| &self.rows[i])
            .ok_or(BaseError::MissingLookup {
                kernel: kernel.kind.tag(),
                data_size: kernel.data_size,
                proc: "any",
            })
    }

    /// Execution time of a kernel instance on one processor category.
    pub fn exec_time(&self, kernel: &Kernel, proc: ProcKind) -> Result<SimDuration, BaseError> {
        let row = self.row(kernel)?;
        row.time_on(proc).ok_or(BaseError::MissingLookup {
            kernel: kernel.kind.tag(),
            data_size: kernel.data_size,
            proc: proc.label(),
        })
    }

    /// The category with the minimum execution time for a kernel, and that
    /// time (`p_min` and `x` in §3.1). Ties break in CPU→GPU→FPGA order.
    pub fn best_category(&self, kernel: &Kernel) -> Result<(ProcKind, SimDuration), BaseError> {
        let row = self.row(kernel)?;
        let mut best = (ProcKind::Cpu, row.times[0]);
        for (i, proc) in ProcKind::EVALUATED.into_iter().enumerate().skip(1) {
            if row.times[i] < best.1 {
                best = (proc, row.times[i]);
            }
        }
        Ok(best)
    }

    /// Degree of heterogeneity of a kernel: `max time / min time` across the
    /// evaluated categories. Large values mean the kernel strongly prefers one
    /// category (MM at 64M elements: ≈ 4.2 × 10⁶).
    pub fn heterogeneity(&self, kernel: &Kernel) -> Result<f64, BaseError> {
        let row = self.row(kernel)?;
        let min = row.times.iter().min().expect("3 columns");
        let max = row.times.iter().max().expect("3 columns");
        Ok(max.as_ns() as f64 / min.as_ns().max(1) as f64)
    }

    /// Data sizes available for a kernel kind, ascending.
    pub fn sizes_for(&self, kind: KernelKind) -> Vec<u64> {
        self.index[kind.index()].iter().map(|&(s, _)| s).collect()
    }

    /// Number of measured data sizes for a kernel kind. Allocation-free
    /// companion to [`LookupTable::sizes_for`] for the generator hot path.
    #[inline]
    pub fn size_count(&self, kind: KernelKind) -> usize {
        self.index[kind.index()].len()
    }

    /// The `i`-th measured data size (ascending) of a kernel kind.
    #[inline]
    pub fn size_at(&self, kind: KernelKind, i: usize) -> u64 {
        self.index[kind.index()][i].0
    }

    /// Derive a table with a reduced degree of heterogeneity: every non-CPU
    /// time `t` is replaced by `cpu + (t − cpu) · factor` (factor in `[0, 1]`;
    /// 1 keeps the paper's table, 0 collapses the system to homogeneous).
    /// Used by the heterogeneity ablation bench.
    pub fn scaled_heterogeneity(&self, factor: f64) -> LookupTable {
        assert!((0.0..=1.0).contains(&factor), "factor must be in [0, 1]");
        LookupTable::from_rows(self.rows.iter().map(|row| {
            let cpu = row.times[0].as_ns() as f64;
            let mut times = row.times;
            for t in times.iter_mut().skip(1) {
                let blended = cpu + (t.as_ns() as f64 - cpu) * factor;
                *t = SimDuration::from_ns(blended.round().max(1.0) as u64);
            }
            LookupRow { times, ..*row }
        }))
    }

    /// Every `(kernel, size)` pair present, as kernel instances.
    pub fn all_kernels(&self) -> Vec<Kernel> {
        self.rows
            .iter()
            .map(|r| Kernel::new(r.kind, r.data_size))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(kind: KernelKind, size: u64) -> Kernel {
        Kernel::new(kind, size)
    }

    #[test]
    fn paper_table_has_25_rows() {
        assert_eq!(LookupTable::paper().rows().len(), 25);
    }

    #[test]
    fn section31_example_rows() {
        // Table 3's excerpt of the lookup table.
        let t = LookupTable::paper();
        let mm16m = k(KernelKind::MatMul, 16_000_000);
        assert_eq!(
            t.exec_time(&mm16m, ProcKind::Cpu).unwrap(),
            SimDuration::from_table_ms(1967.286)
        );
        assert_eq!(
            t.exec_time(&mm16m, ProcKind::Gpu).unwrap(),
            SimDuration::from_table_ms(0.061)
        );
        assert_eq!(
            t.exec_time(&mm16m, ProcKind::Fpga).unwrap(),
            SimDuration::from_table_ms(76_293.945)
        );
        let mi = k(KernelKind::MatInv, 698_896);
        assert_eq!(
            t.exec_time(&mi, ProcKind::Gpu).unwrap(),
            SimDuration::from_table_ms(22.352)
        );
    }

    #[test]
    fn table7_times_for_figure5_kernels() {
        let t = LookupTable::paper();
        let nw = Kernel::canonical(KernelKind::NeedlemanWunsch);
        let bfs = Kernel::canonical(KernelKind::Bfs);
        let cd = k(KernelKind::Cholesky, 250_000);
        assert_eq!(t.best_category(&nw).unwrap().0, ProcKind::Cpu);
        assert_eq!(t.best_category(&bfs).unwrap().0, ProcKind::Fpga);
        assert_eq!(
            t.best_category(&cd).unwrap(),
            (ProcKind::Fpga, SimDuration::from_table_ms(0.093))
        );
    }

    #[test]
    fn missing_entry_is_an_error() {
        let t = LookupTable::paper();
        let bad = k(KernelKind::MatMul, 123);
        assert!(matches!(
            t.exec_time(&bad, ProcKind::Cpu),
            Err(BaseError::MissingLookup { .. })
        ));
        let nw = Kernel::canonical(KernelKind::NeedlemanWunsch);
        assert!(matches!(
            t.exec_time(&nw, ProcKind::Asic),
            Err(BaseError::MissingLookup { .. })
        ));
    }

    #[test]
    fn sizes_for_matches_table14() {
        let t = LookupTable::paper();
        assert_eq!(t.sizes_for(KernelKind::MatMul), MM_MI_CD_SIZES.to_vec());
        assert_eq!(t.sizes_for(KernelKind::Srad), vec![134_217_728]);
    }

    #[test]
    fn heterogeneity_is_large_for_mm() {
        let t = LookupTable::paper();
        let h = t.heterogeneity(&k(KernelKind::MatMul, 64_000_000)).unwrap();
        // 610351.562 / 0.147 ≈ 4.15e6
        assert!(h > 4.0e6 && h < 4.3e6, "h = {h}");
        // NW is mildly heterogeneous: 397/112 ≈ 3.5
        let nw = Kernel::canonical(KernelKind::NeedlemanWunsch);
        let h = t.heterogeneity(&nw).unwrap();
        assert!((3.0..4.0).contains(&h));
    }

    #[test]
    fn scaled_heterogeneity_collapses_to_cpu() {
        let t = LookupTable::paper();
        let flat = t.scaled_heterogeneity(0.0);
        for kernel in flat.all_kernels() {
            let row = flat.row(&kernel).unwrap();
            assert_eq!(row.times[0], row.times[1]);
            assert_eq!(row.times[0], row.times[2]);
        }
        // factor = 1.0 reproduces the original table exactly.
        let same = t.scaled_heterogeneity(1.0);
        assert_eq!(&same, t);
    }

    #[test]
    fn insert_replaces_existing_row() {
        let mut t = LookupTable::paper().clone();
        let row = LookupRow {
            kind: KernelKind::Bfs,
            data_size: 2_034_736,
            times: [SimDuration::from_ms(1); 3],
        };
        t.insert(row);
        assert_eq!(t.rows().len(), 25);
        let bfs = Kernel::canonical(KernelKind::Bfs);
        assert_eq!(
            t.exec_time(&bfs, ProcKind::Cpu).unwrap(),
            SimDuration::from_ms(1)
        );
    }

    #[test]
    fn all_kernels_covers_every_row() {
        let t = LookupTable::paper();
        assert_eq!(t.all_kernels().len(), t.rows().len());
    }

    #[test]
    fn best_category_tie_breaks_deterministically() {
        let mut t = LookupTable::from_rows([]);
        t.insert(LookupRow {
            kind: KernelKind::Bfs,
            data_size: 10,
            times: [SimDuration::from_ms(5); 3],
        });
        let (p, _) = t.best_category(&k(KernelKind::Bfs, 10)).unwrap();
        assert_eq!(p, ProcKind::Cpu);
    }
}
