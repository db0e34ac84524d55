//! `apt-repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! apt-repro list                      # show all artifact ids
//! apt-repro table8 fig7               # regenerate specific artifacts
//! apt-repro all                       # regenerate everything, in paper order
//! apt-repro --markdown all            # markdown output (for EXPERIMENTS.md)
//! apt-repro slo-sweep --csv slo.csv   # long-format snapshot CSV alongside
//! ```
//!
//! Which artifacts exist, their `all` order, and which of them have a CSV
//! or a representative cell all come from one table,
//! `apt_experiments::ARTIFACTS`.
//!
//! `--csv <path>` writes the CSV of every requested artifact that has one
//! (the open-stream sweeps). A sweep runs its grid once for both the
//! table and the CSV, so asking for the CSV costs nothing extra.
//!
//! `--trace <path>` additionally runs one *representative* traced cell of
//! every requested open-stream scenario, writes its Chrome trace-event
//! JSON (loadable in `chrome://tracing` / Perfetto), and prints the
//! `trace-summary` λ-delay report under the artifact.
//!
//! `--metrics <path>` runs one representative *telemetered* cell of every
//! requested open-stream scenario (the same cell `--trace` draws), writes
//! the validated Prometheus exposition to `<path>` and the per-window
//! JSONL snapshot stream to `<path>.jsonl`, and prints the engine's
//! phase-breakdown report under the artifact. `--progress` additionally
//! ticks a throttled stderr heartbeat (jobs/s, in-flight, miss rate, live
//! α/ρ, ETA) while those telemetered cells run — the soak-run operator
//! surface.
//!
//! All three exports name files by one rule: when exactly one requested
//! artifact has the form, the path is used as given; otherwise the id and
//! extension are appended (`out.csv.slo-sweep.csv`,
//! `out.json.stream-saturation.json`, `out.prom.fault-sweep.prom`). A flag
//! that no requested artifact supports is an error (exit 1).

use apt_experiments::{
    all_artifact_ids, artifact, artifact_metrics, artifact_trace, Artifact, ArtifactSpec,
};
use std::io::Write as _;

/// Remove the boolean `flag` from `args`; true when it was there.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let pos = args.iter().position(|a| a == flag);
    pos.map(|pos| args.remove(pos)).is_some()
}

/// Remove `flag <path>` from `args` and return the path; exits 2 when the
/// flag has no path after it.
fn take_path(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == flag)?;
    args.remove(pos);
    if pos < args.len() {
        Some(args.remove(pos))
    } else {
        eprintln!("{flag} needs a path");
        std::process::exit(2);
    }
}

/// One `--csv` / `--trace` / `--metrics <path>` export over the requested
/// artifacts.
struct Export {
    flag: &'static str,
    base: Option<String>,
    ext: &'static str,
    /// Whether an artifact has this form — a static check.
    has: fn(&ArtifactSpec) -> bool,
    /// Requested artifacts that have this form.
    capable: usize,
}

impl Export {
    fn new(
        flag: &'static str,
        base: Option<String>,
        ext: &'static str,
        has: fn(&ArtifactSpec) -> bool,
        specs: &[Option<&ArtifactSpec>],
    ) -> Export {
        let capable = specs.iter().flatten().filter(|spec| has(spec)).count();
        Export {
            flag,
            base,
            ext,
            has,
            capable,
        }
    }

    /// The file `spec` exports to, when the export was requested and the
    /// artifact has the form: the path as given when only one requested
    /// artifact has the form, else `<path>.<id>.<ext>`.
    fn path(&self, spec: &ArtifactSpec) -> Option<String> {
        let base = self.base.as_ref().filter(|_| (self.has)(spec))?;
        Some(if self.capable == 1 {
            base.clone()
        } else {
            format!("{base}.{}.{}", spec.id, self.ext)
        })
    }

    /// Write `contents` to `path`, reporting on stderr (`note` follows
    /// the success line); false when the write failed.
    fn write(&self, path: &str, contents: &str, note: &str) -> bool {
        match std::fs::write(path, contents) {
            Ok(()) => {
                eprintln!("wrote {path}{note}");
                true
            }
            Err(e) => {
                eprintln!("{}: cannot write {path}: {e}", self.flag);
                false
            }
        }
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let markdown = take_flag(&mut args, "--markdown");
    let csv_path = take_path(&mut args, "--csv");
    let trace_path = take_path(&mut args, "--trace");
    let metrics_path = take_path(&mut args, "--metrics");
    let progress = take_flag(&mut args, "--progress");
    if args.is_empty() || args[0] == "help" || args[0] == "--help" {
        eprintln!(
            "usage: apt-repro [--markdown] [--csv <path>] [--trace <path>] \
             [--progress] [--metrics <path>] <artifact-id>... | all | list"
        );
        eprintln!("artifacts: {}", all_artifact_ids().join(" "));
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    if args[0] == "list" {
        for id in all_artifact_ids() {
            println!("{id}");
        }
        return;
    }
    let ids: Vec<&str> = if args[0] == "all" {
        // Fill the run cache for the whole evaluation grid in one parallel
        // wave (combination × graph × policy) before rendering anything.
        apt_experiments::runner::prewarm_paper_grid();
        all_artifact_ids()
    } else {
        args.iter().map(String::as_str).collect()
    };
    let specs: Vec<Option<&ArtifactSpec>> = ids.iter().map(|id| artifact(id)).collect();

    let has_cell = |spec: &ArtifactSpec| spec.trace_cell().is_some();
    let csv = Export::new("--csv", csv_path, "csv", ArtifactSpec::has_csv, &specs);
    let trace = Export::new("--trace", trace_path, "json", has_cell, &specs);
    let metrics = Export::new("--metrics", metrics_path, "prom", has_cell, &specs);

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut failed = false;
    for (export, form) in [
        (&csv, "CSV form"),
        (&trace, "traced form"),
        (&metrics, "telemetered form"),
    ] {
        if export.base.is_some() && export.capable == 0 {
            eprintln!(
                "{}: none of the requested artifacts has a {form}",
                export.flag
            );
            failed = true;
        }
    }
    for (id, spec) in ids.iter().zip(&specs) {
        let Some(spec) = spec else {
            eprintln!("unknown artifact id: {id}");
            failed = true;
            continue;
        };
        // A sweep runs once and feeds both the table and the CSV.
        let (artifact, csv_text) = spec.run();
        if let (Some(path), Some(text)) = (csv.path(spec), csv_text) {
            failed |= !csv.write(&path, &text, "");
        }
        let rendered = match (&artifact, markdown) {
            (Artifact::Table(t), true) => t.to_markdown(),
            _ => artifact.to_string(),
        };
        if writeln!(out, "=== {id} ===\n{rendered}").is_err() {
            // Downstream pipe closed (e.g. `apt-repro all | head`): stop
            // quietly instead of panicking.
            return;
        }
        if let (Some(path), Some(cell)) = (trace.path(spec), spec.trace_cell()) {
            let export = artifact_trace(cell);
            failed |= !trace.write(&path, &export.chrome, "");
            if writeln!(out, "{}", export.summary).is_err() {
                return;
            }
        }
        if let (Some(path), Some(cell)) = (metrics.path(spec), spec.trace_cell()) {
            let export = artifact_metrics(cell, progress);
            let samples = format!(" ({} samples)", export.samples);
            failed |= !metrics.write(&path, &export.prometheus, &samples);
            let windows = format!(" ({} windows)", export.lines);
            failed |= !metrics.write(&format!("{path}.jsonl"), &export.jsonl, &windows);
            if writeln!(out, "{}", export.report).is_err() {
                return;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
