//! The unified compile report: one versioned, deterministic JSON
//! document aggregating every subsystem's counters.
//!
//! Before this module existed, each figure bench reached into a
//! different per-crate stats struct ([`LoaderStats`] for Figure 5,
//! [`MemorySnapshot`] for Figure 4, driver fields for Figure 6). A
//! [`CompileReport`] collects them all behind one schema
//! (`cmo.report.v1`) so external tooling — and the in-repo benches —
//! consume a single stable surface. See `METRICS.md` at the repository
//! root for the field-by-field documentation.
//!
//! The JSON is hand-rolled (no serde) and contains only integers,
//! strings, and the work-unit clock — never wall time — so two
//! identical compilations serialize byte-identically.

use crate::cache::CacheStats;
use crate::driver::BuildReport;
use cmo_hlo::{HloStats, PartitionStats};
use cmo_naim::{DecodeError, Decoder, Encoder, LoaderStats, MemClass, MemorySnapshot, RemoteStats};
use cmo_telemetry::json::JsonWriter;
use cmo_telemetry::{PhaseRecord, REPORT_SCHEMA};

/// Contained faults of one compilation: worker panics absorbed by the
/// job pool and modules abandoned under `--keep-going`.
///
/// Storage-recovery counts are deliberately *not* part of the report:
/// a rebuild after cache recovery must serialize byte-identically to
/// the original build, so recovery is surfaced through `recover` trace
/// events and `cmocc`'s exit code 3 instead.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Worker panics contained by the job pool.
    pub job_panics: u64,
    /// Names of modules that failed and were skipped (`--keep-going`),
    /// in input order.
    pub degraded: Vec<String>,
    /// Remote shared-cache tier traffic and failures (all zeros with
    /// no `--remote-cache`). A tripped breaker shows up here — the
    /// build itself still succeeds on local state alone.
    pub remote: RemoteStats,
}

/// Aggregated, versioned view of one compilation, serializable to the
/// `cmo.report.v1` JSON schema via [`CompileReport::to_json`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompileReport {
    /// Modules selected for CMO.
    pub cmo_modules: usize,
    /// Total modules in the program.
    pub total_modules: usize,
    /// Source lines inside CMO modules (Figure 6 x-axis).
    pub cmo_loc: u64,
    /// Total source lines.
    pub total_loc: u64,
    /// HLO transformation counters.
    pub hlo: HloStats,
    /// Cluster partition counters from the parallel HLO fan-out.
    pub clusters: PartitionStats,
    /// NAIM loader activity counters.
    pub loader: LoaderStats,
    /// Optimizer memory snapshot (Figures 4/5).
    pub memory: MemorySnapshot,
    /// Largest per-routine LLO working set in bytes.
    pub llo_peak_bytes: usize,
    /// Total simulated compile effort in work units (Figure 6 y-axis).
    pub compile_work: u64,
    /// Final image size in machine instructions.
    pub image_instrs: usize,
    /// Incremental-cache activity for this build (all zeros with the
    /// cache disabled).
    pub cache: CacheStats,
    /// Faults contained during the build (empty on a clean run).
    pub faults: FaultStats,
    /// Hierarchical phase timers on the work-unit clock.
    pub phases: Vec<PhaseRecord>,
}

/// JSON field name for a memory class, in [`MemClass::ALL`] order.
fn mem_class_name(class: MemClass) -> &'static str {
    match class {
        MemClass::Global => "global",
        MemClass::TransitoryExpanded => "transitory_expanded",
        MemClass::TransitoryCompact => "transitory_compact",
        MemClass::Derived => "derived",
    }
}

impl CompileReport {
    /// The schema identifier written into every report
    /// (re-exported from `cmo-telemetry` for discoverability).
    pub const SCHEMA: &'static str = REPORT_SCHEMA;

    /// Builds the unified report from a driver [`BuildReport`].
    #[must_use]
    pub fn from_build(report: &BuildReport) -> Self {
        CompileReport {
            cmo_modules: report.cmo_modules,
            total_modules: report.total_modules,
            cmo_loc: report.cmo_loc,
            total_loc: report.total_loc,
            hlo: report.hlo,
            clusters: report.clusters,
            loader: report.loader,
            memory: report.peak_memory,
            llo_peak_bytes: report.llo_peak_bytes,
            compile_work: report.compile_work,
            image_instrs: report.image_instrs,
            cache: report.cache,
            faults: report.faults.clone(),
            phases: report.phases.clone(),
        }
    }

    /// Peak optimizer (HLO-stage) heap in bytes — the Figure 4/5
    /// memory axis.
    #[must_use]
    pub fn peak_bytes(&self) -> usize {
        self.memory.peak_total
    }

    /// Peak over the whole compilation: the larger of the optimizer
    /// heap and the biggest per-routine LLO working set.
    #[must_use]
    pub fn overall_peak_bytes(&self) -> usize {
        self.memory.peak_total.max(self.llo_peak_bytes)
    }

    /// Serializes to the versioned `cmo.report.v1` JSON document.
    ///
    /// Field order is fixed, all numbers are integers, and no wall
    /// time is included, so the output is byte-identical across runs
    /// of the same compilation. Every field is documented in
    /// `METRICS.md`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj(None);
        w.field_str("schema", Self::SCHEMA);

        w.begin_obj(Some("selection"));
        w.field_usize("cmo_modules", self.cmo_modules);
        w.field_usize("total_modules", self.total_modules);
        w.field_u64("cmo_loc", self.cmo_loc);
        w.field_u64("total_loc", self.total_loc);
        w.end_obj();

        w.begin_obj(Some("hlo"));
        w.field_u64("inlines", self.hlo.inlines);
        w.field_u64("sites_considered", self.hlo.sites_considered);
        w.field_u64("globals_folded", self.hlo.globals_folded);
        w.field_u64("dead_stores_removed", self.hlo.dead_stores_removed);
        w.field_u64("dead_routines", self.hlo.dead_routines);
        w.field_u64("clones", self.hlo.clones);
        w.begin_obj(Some("clusters"));
        w.field_u64("count", self.clusters.clusters);
        w.field_u64("largest", self.clusters.largest);
        w.field_u64("cross_edges", self.clusters.cross_edges);
        w.end_obj();
        w.end_obj();

        w.begin_obj(Some("loader"));
        w.field_u64("pools", self.loader.pools);
        w.field_u64("hits", self.loader.hits);
        w.field_u64("cache_rescues", self.loader.cache_rescues);
        w.field_u64("uncompactions", self.loader.uncompactions);
        w.field_u64("compactions", self.loader.compactions);
        w.field_u64("offload_writes", self.loader.offload_writes);
        w.field_u64("offload_reads", self.loader.offload_reads);
        w.field_u64("bytes_swizzled", self.loader.bytes_swizzled);
        w.field_u64("bytes_offloaded", self.loader.bytes_offloaded);
        w.field_u64("work_units", self.loader.work_units);
        w.field_u64("fetch_work_units", self.loader.fetch_work_units);
        w.end_obj();

        w.begin_obj(Some("memory"));
        w.begin_obj(Some("current"));
        for class in MemClass::ALL {
            w.field_usize(mem_class_name(class), self.memory.class(class));
        }
        w.end_obj();
        w.begin_obj(Some("peak"));
        for class in MemClass::ALL {
            w.field_usize(mem_class_name(class), self.memory.peak_class(class));
        }
        w.end_obj();
        w.field_usize("peak_total", self.memory.peak_total);
        w.end_obj();

        w.begin_obj(Some("llo"));
        w.field_usize("peak_bytes", self.llo_peak_bytes);
        w.end_obj();

        w.begin_obj(Some("image"));
        w.field_usize("instrs", self.image_instrs);
        w.end_obj();

        w.begin_obj(Some("work"));
        w.field_u64("compile_work", self.compile_work);
        w.end_obj();

        w.begin_obj(Some("cache"));
        w.field_bool("enabled", self.cache.enabled);
        w.field_u64("module_hits", self.cache.module_hits);
        w.field_u64("module_misses", self.cache.module_misses);
        w.field_u64("build_hits", self.cache.build_hits);
        w.field_u64("invalidations", self.cache.invalidations);
        w.begin_obj(Some("gc"));
        w.field_u64("runs", self.cache.gc_runs);
        w.field_u64("reclaimed_bytes", self.cache.gc_reclaimed_bytes);
        w.field_u64("live_records", self.cache.gc_live_records);
        w.field_u64("pruned_lines", self.cache.gc_pruned_lines);
        w.end_obj();
        w.end_obj();

        w.begin_obj(Some("faults"));
        w.field_u64("job_panics", self.faults.job_panics);
        w.begin_arr(Some("degraded"));
        for module in &self.faults.degraded {
            w.elem_str(module);
        }
        w.end_arr();
        w.begin_obj(Some("remote"));
        w.field_bool("enabled", self.faults.remote.enabled);
        w.field_u64("gets", self.faults.remote.gets);
        w.field_u64("hits", self.faults.remote.hits);
        w.field_u64("misses", self.faults.remote.misses);
        w.field_u64("puts", self.faults.remote.puts);
        w.field_u64("retries", self.faults.remote.retries);
        w.field_u64("failures", self.faults.remote.failures);
        w.field_bool("breaker_open", self.faults.remote.breaker_open);
        w.field_u64("fetched_bytes", self.faults.remote.fetched_bytes);
        w.field_u64("pushed_bytes", self.faults.remote.pushed_bytes);
        w.end_obj();
        w.end_obj();

        w.begin_arr(Some("phases"));
        for phase in &self.phases {
            w.begin_obj(None);
            w.field_str("name", &phase.name);
            w.field_u64("depth", u64::from(phase.depth));
            w.field_u64("start_work", phase.start_work);
            w.field_u64("end_work", phase.end_work);
            w.end_obj();
        }
        w.end_arr();

        w.end_obj();
        w.finish()
    }

    /// Serializes the report to the cache's relocatable byte form.
    ///
    /// `wall_nanos` is deliberately dropped, exactly as in the JSON
    /// form: a replayed report must be indistinguishable from the cold
    /// run's, and wall time never is.
    pub(crate) fn encode(&self, enc: &mut Encoder) {
        enc.write_usize(self.cmo_modules);
        enc.write_usize(self.total_modules);
        enc.write_u64(self.cmo_loc);
        enc.write_u64(self.total_loc);
        enc.write_u64(self.hlo.inlines);
        enc.write_u64(self.hlo.sites_considered);
        enc.write_u64(self.hlo.globals_folded);
        enc.write_u64(self.hlo.dead_stores_removed);
        enc.write_u64(self.hlo.dead_routines);
        enc.write_u64(self.hlo.clones);
        enc.write_u64(self.clusters.clusters);
        enc.write_u64(self.clusters.largest);
        enc.write_u64(self.clusters.cross_edges);
        enc.write_u64(self.loader.pools);
        enc.write_u64(self.loader.hits);
        enc.write_u64(self.loader.cache_rescues);
        enc.write_u64(self.loader.uncompactions);
        enc.write_u64(self.loader.compactions);
        enc.write_u64(self.loader.offload_writes);
        enc.write_u64(self.loader.offload_reads);
        enc.write_u64(self.loader.bytes_swizzled);
        enc.write_u64(self.loader.bytes_offloaded);
        enc.write_u64(self.loader.work_units);
        enc.write_u64(self.loader.fetch_work_units);
        for v in self.memory.current {
            enc.write_usize(v);
        }
        for v in self.memory.peak {
            enc.write_usize(v);
        }
        enc.write_usize(self.memory.peak_total);
        enc.write_usize(self.llo_peak_bytes);
        enc.write_u64(self.compile_work);
        enc.write_usize(self.image_instrs);
        enc.write_bool(self.cache.enabled);
        enc.write_u64(self.cache.module_hits);
        enc.write_u64(self.cache.module_misses);
        enc.write_u64(self.cache.build_hits);
        enc.write_u64(self.cache.invalidations);
        enc.write_u64(self.cache.gc_runs);
        enc.write_u64(self.cache.gc_reclaimed_bytes);
        enc.write_u64(self.cache.gc_live_records);
        enc.write_u64(self.cache.gc_pruned_lines);
        enc.write_u64(self.faults.job_panics);
        enc.write_usize(self.faults.degraded.len());
        for module in &self.faults.degraded {
            enc.write_str(module);
        }
        enc.write_bool(self.faults.remote.enabled);
        enc.write_u64(self.faults.remote.gets);
        enc.write_u64(self.faults.remote.hits);
        enc.write_u64(self.faults.remote.misses);
        enc.write_u64(self.faults.remote.puts);
        enc.write_u64(self.faults.remote.retries);
        enc.write_u64(self.faults.remote.failures);
        enc.write_bool(self.faults.remote.breaker_open);
        enc.write_u64(self.faults.remote.fetched_bytes);
        enc.write_u64(self.faults.remote.pushed_bytes);
        enc.write_usize(self.phases.len());
        for phase in &self.phases {
            enc.write_str(&phase.name);
            enc.write_u32(phase.depth);
            enc.write_u64(phase.start_work);
            enc.write_u64(phase.end_work);
        }
    }

    /// Rebuilds a report from its relocatable byte form. `wall_nanos`
    /// comes back zero on every phase record (it is never stored).
    pub(crate) fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let cmo_modules = dec.read_usize()?;
        let total_modules = dec.read_usize()?;
        let cmo_loc = dec.read_u64()?;
        let total_loc = dec.read_u64()?;
        let hlo = HloStats {
            inlines: dec.read_u64()?,
            sites_considered: dec.read_u64()?,
            globals_folded: dec.read_u64()?,
            dead_stores_removed: dec.read_u64()?,
            dead_routines: dec.read_u64()?,
            clones: dec.read_u64()?,
        };
        let clusters = PartitionStats {
            clusters: dec.read_u64()?,
            largest: dec.read_u64()?,
            cross_edges: dec.read_u64()?,
        };
        let loader = LoaderStats {
            pools: dec.read_u64()?,
            hits: dec.read_u64()?,
            cache_rescues: dec.read_u64()?,
            uncompactions: dec.read_u64()?,
            compactions: dec.read_u64()?,
            offload_writes: dec.read_u64()?,
            offload_reads: dec.read_u64()?,
            bytes_swizzled: dec.read_u64()?,
            bytes_offloaded: dec.read_u64()?,
            work_units: dec.read_u64()?,
            fetch_work_units: dec.read_u64()?,
        };
        let mut current = [0usize; 4];
        for slot in &mut current {
            *slot = dec.read_usize()?;
        }
        let mut peak = [0usize; 4];
        for slot in &mut peak {
            *slot = dec.read_usize()?;
        }
        let memory = MemorySnapshot {
            current,
            peak,
            peak_total: dec.read_usize()?,
        };
        let llo_peak_bytes = dec.read_usize()?;
        let compile_work = dec.read_u64()?;
        let image_instrs = dec.read_usize()?;
        let cache = CacheStats {
            enabled: dec.read_bool()?,
            module_hits: dec.read_u64()?,
            module_misses: dec.read_u64()?,
            build_hits: dec.read_u64()?,
            invalidations: dec.read_u64()?,
            gc_runs: dec.read_u64()?,
            gc_reclaimed_bytes: dec.read_u64()?,
            gc_live_records: dec.read_u64()?,
            gc_pruned_lines: dec.read_u64()?,
        };
        let job_panics = dec.read_u64()?;
        let n_degraded = dec.read_usize()?;
        let mut degraded = Vec::with_capacity(n_degraded.min(4096));
        for _ in 0..n_degraded {
            degraded.push(dec.read_str()?.to_owned());
        }
        let remote = RemoteStats {
            enabled: dec.read_bool()?,
            gets: dec.read_u64()?,
            hits: dec.read_u64()?,
            misses: dec.read_u64()?,
            puts: dec.read_u64()?,
            retries: dec.read_u64()?,
            failures: dec.read_u64()?,
            breaker_open: dec.read_bool()?,
            fetched_bytes: dec.read_u64()?,
            pushed_bytes: dec.read_u64()?,
        };
        let faults = FaultStats {
            job_panics,
            degraded,
            remote,
        };
        let n_phases = dec.read_usize()?;
        let mut phases = Vec::with_capacity(n_phases.min(4096));
        for _ in 0..n_phases {
            phases.push(PhaseRecord {
                name: dec.read_str()?.to_owned(),
                depth: dec.read_u32()?,
                start_work: dec.read_u64()?,
                end_work: dec.read_u64()?,
                wall_nanos: 0,
            });
        }
        Ok(CompileReport {
            cmo_modules,
            total_modules,
            cmo_loc,
            total_loc,
            hlo,
            clusters,
            loader,
            memory,
            llo_peak_bytes,
            compile_work,
            image_instrs,
            cache,
            faults,
            phases,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CompileReport {
        CompileReport {
            cmo_modules: 2,
            total_modules: 3,
            cmo_loc: 40,
            total_loc: 60,
            hlo: HloStats {
                inlines: 5,
                sites_considered: 9,
                ..HloStats::default()
            },
            loader: LoaderStats {
                pools: 6,
                compactions: 4,
                work_units: 1234,
                ..LoaderStats::default()
            },
            llo_peak_bytes: 2048,
            compile_work: 9999,
            image_instrs: 321,
            phases: vec![PhaseRecord {
                name: "hlo.inline".to_owned(),
                depth: 1,
                start_work: 10,
                end_work: 200,
                wall_nanos: 77,
            }],
            ..CompileReport::default()
        }
    }

    #[test]
    fn json_is_versioned_and_deterministic() {
        let r = sample();
        let a = r.to_json();
        let b = r.to_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\n  \"schema\": \"cmo.report.v1\""));
        assert!(a.ends_with("}\n"));
    }

    #[test]
    fn json_has_all_sections_and_no_wall_time() {
        let text = sample().to_json();
        for section in [
            "\"selection\"",
            "\"hlo\"",
            "\"loader\"",
            "\"memory\"",
            "\"llo\"",
            "\"image\"",
            "\"work\"",
            "\"cache\"",
            "\"gc\"",
            "\"faults\"",
            "\"remote\"",
            "\"phases\"",
        ] {
            assert!(text.contains(section), "missing {section} in {text}");
        }
        assert!(text.contains("\"name\": \"hlo.inline\""));
        assert!(text.contains("\"work_units\": 1234"));
        assert!(
            !text.contains("wall") && !text.contains("nanos"),
            "wall time must never reach the JSON report"
        );
    }

    #[test]
    fn codec_round_trips_everything_but_wall_time() {
        let mut r = sample();
        r.cache = CacheStats {
            enabled: true,
            module_hits: 3,
            module_misses: 1,
            build_hits: 1,
            invalidations: 2,
            gc_runs: 1,
            gc_reclaimed_bytes: 4096,
            gc_live_records: 5,
            gc_pruned_lines: 2,
        };
        r.faults = FaultStats {
            job_panics: 1,
            degraded: vec!["util".to_owned(), "app".to_owned()],
            remote: RemoteStats {
                enabled: true,
                gets: 4,
                hits: 2,
                misses: 1,
                puts: 3,
                retries: 2,
                failures: 1,
                breaker_open: true,
                fetched_bytes: 512,
                pushed_bytes: 1024,
            },
        };
        let mut enc = Encoder::new();
        r.encode(&mut enc);
        let bytes = enc.into_bytes();
        let back = CompileReport::decode(&mut Decoder::new(&bytes)).expect("decodes");
        // wall_nanos is dropped by design; everything else survives.
        let mut expect = r.clone();
        expect.phases[0].wall_nanos = 0;
        assert_eq!(back, expect);
        assert_eq!(back.to_json(), {
            let mut cold = r;
            cold.phases[0].wall_nanos = 0;
            cold.to_json()
        });
    }

    #[test]
    fn accessors_unify_peaks() {
        let mut r = sample();
        r.memory.peak_total = 1000;
        assert_eq!(r.peak_bytes(), 1000);
        assert_eq!(r.overall_peak_bytes(), 2048);
        r.llo_peak_bytes = 10;
        assert_eq!(r.overall_peak_bytes(), 1000);
    }
}
