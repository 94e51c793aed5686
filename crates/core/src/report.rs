//! The compile report: one versioned, deterministic record of what a
//! build did, aggregating every subsystem's counters.
//!
//! A [`CompileReport`] is what [`crate::BuildOutput::report`] holds,
//! what the cache stores beside a linked image, and what `cmocc
//! --report-json` writes (schema `cmo.report.v1`). See `METRICS.md` at
//! the repository root for the field-by-field documentation.
//!
//! The field list exists once, in [`CompileReport::walk`]: writing the
//! JSON, encoding for the cache and decoding from it are three modes of
//! one walk over it, so the byte form always carries exactly the JSON's
//! fields in the JSON's order. The JSON is hand-rolled (no serde) and holds
//! only integers, strings and the work-unit clock — never wall time —
//! so two identical compilations serialize byte-identically.

use crate::cache::CacheStats;
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

/// What one build did, for diagnostics and the paper's experiments,
/// serializable to the `cmo.report.v1` JSON schema via
/// [`CompileReport::to_json`].
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
    /// Cluster partition counters from the parallel HLO fan-out
    /// (zeros below `+O4`).
    pub clusters: PartitionStats,
    /// NAIM loader activity counters.
    pub loader: LoaderStats,
    /// Optimizer memory snapshot (Figures 4/5).
    pub memory: MemorySnapshot,
    /// Largest per-routine LLO working set in bytes.
    pub llo_peak_bytes: usize,
    /// Simulated compile effort in abstract work units: NAIM traffic
    /// plus per-routine analysis/lowering costs (Figure 6 y-axis).
    pub compile_work: u64,
    /// Final image size in machine instructions.
    pub image_instrs: usize,
    /// This build's own incremental-cache counters (all zeros with no
    /// cache attached) — on a replay too, where they count the probes
    /// that found the stored build.
    pub cache: CacheStats,
    /// On a warm whole-build replay, the cold run's cache counters as
    /// stored with its report. The JSON and the byte form present these
    /// in place of [`CompileReport::cache`], which is what keeps a warm
    /// `--report-json` byte-identical to its cold build's. `None` on a
    /// build that ran.
    pub replayed: Option<CacheStats>,
    /// Faults contained during the build (empty on a clean run).
    pub faults: FaultStats,
    /// Hierarchical phase timers on the work-unit clock. Empty when
    /// telemetry was disabled.
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

/// One pass over a report's fields — [`CompileReport::walk`] is the
/// only list of them — in one of three modes: writing the JSON
/// document, writing the cache's byte form (the values alone, in
/// document order, each array led by its length), or reading that form
/// back into a default report.
enum Walker<'a, 'b> {
    Json(&'a mut JsonWriter),
    Encode(&'a mut Encoder),
    /// The first error sticks: every later read is skipped, so a
    /// damaged record costs no more reading than the bytes it has.
    Decode(&'a mut Decoder<'b>, Option<DecodeError>),
}

impl<'b> Walker<'_, 'b> {
    /// Opens a nested object: a named member, or (`None`) an array
    /// element.
    fn open(&mut self, name: Option<&str>) {
        if let Walker::Json(w) = self {
            w.begin_obj(name);
        }
    }

    fn close(&mut self) {
        if let Walker::Json(w) = self {
            w.end_obj();
        }
    }

    /// Decoding: reads `v`, unless an earlier read failed.
    fn read<T>(
        &mut self,
        v: &mut T,
        read: impl FnOnce(&mut Decoder<'b>) -> Result<T, DecodeError>,
    ) {
        if let Walker::Decode(dec, err @ None) = self {
            match read(dec) {
                Ok(value) => *v = value,
                Err(e) => *err = Some(e),
            }
        }
    }

    fn u64(&mut self, name: &str, v: &mut u64) {
        match self {
            Walker::Json(w) => w.field_u64(name, *v),
            Walker::Encode(enc) => enc.write_u64(*v),
            Walker::Decode(..) => self.read(v, Decoder::read_u64),
        }
    }

    fn usize(&mut self, name: &str, v: &mut usize) {
        let mut wide = *v as u64;
        self.u64(name, &mut wide);
        *v = wide as usize;
    }

    fn u32(&mut self, name: &str, v: &mut u32) {
        let mut wide = u64::from(*v);
        self.u64(name, &mut wide);
        self.read(v, |_| {
            u32::try_from(wide).map_err(|_| DecodeError::Corrupt {
                what: "u32 field out of range",
            })
        });
    }

    fn bool(&mut self, name: &str, v: &mut bool) {
        match self {
            Walker::Json(w) => w.field_bool(name, *v),
            Walker::Encode(enc) => enc.write_bool(*v),
            Walker::Decode(..) => self.read(v, Decoder::read_bool),
        }
    }

    /// A string: a named member, or (`None`) an array element.
    fn str(&mut self, name: Option<&str>, v: &mut String) {
        match (self, name) {
            (Walker::Json(w), Some(name)) => w.field_str(name, v),
            (Walker::Json(w), None) => w.elem_str(v),
            (Walker::Encode(enc), _) => enc.write_str(v),
            (walker, _) => walker.read(v, |dec| dec.read_str().map(str::to_owned)),
        }
    }

    /// An array, each element walked by `item`. Decoding grows `items`
    /// one element at a time and stops at the first failed read, so a
    /// stated length beyond the record allocates nothing for it.
    fn list<T: Default>(
        &mut self,
        name: &str,
        items: &mut Vec<T>,
        mut item: impl FnMut(&mut Self, &mut T),
    ) {
        let mut len = items.len();
        match self {
            Walker::Json(w) => w.begin_arr(Some(name)),
            Walker::Encode(enc) => enc.write_usize(len),
            Walker::Decode(..) => self.read(&mut len, Decoder::read_usize),
        }
        for i in 0..len {
            if let Walker::Decode(_, Some(_)) = self {
                break;
            }
            if i == items.len() {
                items.push(T::default());
            }
            item(self, &mut items[i]);
        }
        if let Walker::Json(w) = self {
            w.end_arr();
        }
    }
}

impl CompileReport {
    /// The schema identifier written into every report
    /// (re-exported from `cmo-telemetry` for discoverability).
    pub const SCHEMA: &'static str = REPORT_SCHEMA;

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

    /// Every field the JSON and the byte form carry, in document order.
    /// `wall_nanos` is left out of both: a replayed report must be
    /// indistinguishable from the cold run's, and wall time never is.
    /// The walk takes the fields by `&mut` so decoding can fill them;
    /// writing walks a copy.
    fn walk(&mut self, w: &mut Walker<'_, '_>) {
        w.open(Some("selection"));
        w.usize("cmo_modules", &mut self.cmo_modules);
        w.usize("total_modules", &mut self.total_modules);
        w.u64("cmo_loc", &mut self.cmo_loc);
        w.u64("total_loc", &mut self.total_loc);
        w.close();

        let hlo = &mut self.hlo;
        w.open(Some("hlo"));
        w.u64("inlines", &mut hlo.inlines);
        w.u64("sites_considered", &mut hlo.sites_considered);
        w.u64("globals_folded", &mut hlo.globals_folded);
        w.u64("dead_stores_removed", &mut hlo.dead_stores_removed);
        w.u64("dead_routines", &mut hlo.dead_routines);
        w.u64("clones", &mut hlo.clones);
        w.open(Some("clusters"));
        w.u64("count", &mut self.clusters.clusters);
        w.u64("largest", &mut self.clusters.largest);
        w.u64("cross_edges", &mut self.clusters.cross_edges);
        w.close();
        w.close();

        let loader = &mut self.loader;
        w.open(Some("loader"));
        w.u64("pools", &mut loader.pools);
        w.u64("hits", &mut loader.hits);
        w.u64("cache_rescues", &mut loader.cache_rescues);
        w.u64("uncompactions", &mut loader.uncompactions);
        w.u64("compactions", &mut loader.compactions);
        w.u64("offload_writes", &mut loader.offload_writes);
        w.u64("offload_reads", &mut loader.offload_reads);
        w.u64("bytes_swizzled", &mut loader.bytes_swizzled);
        w.u64("bytes_offloaded", &mut loader.bytes_offloaded);
        w.u64("work_units", &mut loader.work_units);
        w.u64("fetch_work_units", &mut loader.fetch_work_units);
        w.close();

        let memory = &mut self.memory;
        w.open(Some("memory"));
        for (name, classes) in [("current", &mut memory.current), ("peak", &mut memory.peak)] {
            w.open(Some(name));
            for (class, bytes) in MemClass::ALL.into_iter().zip(classes) {
                w.usize(mem_class_name(class), bytes);
            }
            w.close();
        }
        w.usize("peak_total", &mut memory.peak_total);
        w.close();

        w.open(Some("llo"));
        w.usize("peak_bytes", &mut self.llo_peak_bytes);
        w.close();
        w.open(Some("image"));
        w.usize("instrs", &mut self.image_instrs);
        w.close();
        w.open(Some("work"));
        w.u64("compile_work", &mut self.compile_work);
        w.close();

        let cache = self.replayed.as_mut().unwrap_or(&mut self.cache);
        w.open(Some("cache"));
        w.bool("enabled", &mut cache.enabled);
        w.u64("module_hits", &mut cache.module_hits);
        w.u64("module_misses", &mut cache.module_misses);
        w.u64("build_hits", &mut cache.build_hits);
        w.u64("invalidations", &mut cache.invalidations);
        w.open(Some("gc"));
        w.u64("runs", &mut cache.gc_runs);
        w.u64("reclaimed_bytes", &mut cache.gc_reclaimed_bytes);
        w.u64("live_records", &mut cache.gc_live_records);
        w.u64("pruned_lines", &mut cache.gc_pruned_lines);
        w.close();
        w.close();

        let faults = &mut self.faults;
        w.open(Some("faults"));
        w.u64("job_panics", &mut faults.job_panics);
        w.list("degraded", &mut faults.degraded, |w, module| {
            w.str(None, module)
        });
        let remote = &mut faults.remote;
        w.open(Some("remote"));
        w.bool("enabled", &mut remote.enabled);
        w.u64("gets", &mut remote.gets);
        w.u64("hits", &mut remote.hits);
        w.u64("misses", &mut remote.misses);
        w.u64("puts", &mut remote.puts);
        w.u64("retries", &mut remote.retries);
        w.u64("failures", &mut remote.failures);
        w.bool("breaker_open", &mut remote.breaker_open);
        w.u64("fetched_bytes", &mut remote.fetched_bytes);
        w.u64("pushed_bytes", &mut remote.pushed_bytes);
        w.close();
        w.close();

        w.list("phases", &mut self.phases, |w, phase| {
            w.open(None);
            w.str(Some("name"), &mut phase.name);
            w.u32("depth", &mut phase.depth);
            w.u64("start_work", &mut phase.start_work);
            w.u64("end_work", &mut phase.end_work);
            w.close();
        });
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
        self.clone().walk(&mut Walker::Json(&mut w));
        w.end_obj();
        w.finish()
    }

    /// Serializes the report to the cache's relocatable byte form: the
    /// JSON's values in the JSON's order.
    pub(crate) fn encode(&self, enc: &mut Encoder) {
        self.clone().walk(&mut Walker::Encode(enc));
    }

    /// Rebuilds a report from its relocatable byte form. `wall_nanos`
    /// comes back zero on every phase record (it is never stored), and
    /// the cache counters come back in [`CompileReport::cache`].
    pub(crate) fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let mut report = CompileReport::default();
        let mut walker = Walker::Decode(dec, None);
        report.walk(&mut walker);
        match walker {
            Walker::Decode(_, Some(e)) => Err(e),
            _ => Ok(report),
        }
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

    /// A report in which every field the walk carries holds a value of
    /// its own, none of them a default.
    fn every_field_set() -> CompileReport {
        let mut next = 100u64;
        let mut n = || {
            next += 1;
            next
        };
        CompileReport {
            cmo_modules: n() as usize,
            total_modules: n() as usize,
            cmo_loc: n(),
            total_loc: n(),
            hlo: HloStats {
                inlines: n(),
                sites_considered: n(),
                globals_folded: n(),
                dead_stores_removed: n(),
                dead_routines: n(),
                clones: n(),
            },
            clusters: PartitionStats {
                clusters: n(),
                largest: n(),
                cross_edges: n(),
            },
            loader: LoaderStats {
                pools: n(),
                hits: n(),
                cache_rescues: n(),
                uncompactions: n(),
                compactions: n(),
                offload_writes: n(),
                offload_reads: n(),
                bytes_swizzled: n(),
                bytes_offloaded: n(),
                work_units: n(),
                fetch_work_units: n(),
            },
            memory: MemorySnapshot {
                current: [n() as usize, n() as usize, n() as usize, n() as usize],
                peak: [n() as usize, n() as usize, n() as usize, n() as usize],
                peak_total: n() as usize,
            },
            llo_peak_bytes: n() as usize,
            compile_work: n(),
            image_instrs: n() as usize,
            cache: CacheStats {
                enabled: true,
                module_hits: n(),
                module_misses: n(),
                build_hits: n(),
                invalidations: n(),
                gc_runs: n(),
                gc_reclaimed_bytes: n(),
                gc_live_records: n(),
                gc_pruned_lines: n(),
            },
            replayed: None,
            faults: FaultStats {
                job_panics: n(),
                degraded: vec!["util".to_owned(), "app".to_owned()],
                remote: RemoteStats {
                    enabled: true,
                    gets: n(),
                    hits: n(),
                    misses: n(),
                    puts: n(),
                    retries: n(),
                    failures: n(),
                    breaker_open: true,
                    fetched_bytes: n(),
                    pushed_bytes: n(),
                },
            },
            phases: vec![
                PhaseRecord {
                    name: "hlo".to_owned(),
                    depth: 1,
                    start_work: n(),
                    end_work: n(),
                    wall_nanos: 77,
                },
                PhaseRecord {
                    name: "hlo.inline".to_owned(),
                    depth: 2,
                    start_work: n(),
                    end_work: n(),
                    wall_nanos: 78,
                },
            ],
        }
    }

    fn round_trip(r: &CompileReport) -> Result<CompileReport, DecodeError> {
        let mut enc = Encoder::new();
        r.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = CompileReport::decode(&mut dec)?;
        assert!(dec.is_at_end(), "the decoder reads what the encoder wrote");
        Ok(back)
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

    /// Every field carries a value of its own, so a field the shared
    /// walk dropped would come back as its default and fail the
    /// comparison.
    #[test]
    fn codec_round_trips_everything_but_wall_time() {
        let r = every_field_set();
        let back = round_trip(&r).expect("decodes");
        // wall_nanos is dropped by design; everything else survives.
        let mut expect = r.clone();
        for phase in &mut expect.phases {
            phase.wall_nanos = 0;
        }
        assert_eq!(back, expect);
        // And the writer walks past none of them either.
        let json = r.to_json();
        assert_eq!(back.to_json(), json);
        for value in 101..=r.phases[1].end_work {
            assert!(json.contains(&format!(": {value}")), "{value} missing");
        }
    }

    #[test]
    fn a_replayed_report_presents_the_stored_cache_counters() {
        let cold = every_field_set();
        let mut warm = cold.clone();
        warm.replayed = Some(cold.cache);
        warm.cache = CacheStats {
            enabled: true,
            module_hits: 2,
            build_hits: 1,
            ..CacheStats::default()
        };
        assert_eq!(warm.to_json(), cold.to_json());
        let back = round_trip(&warm).expect("decodes");
        assert_eq!((back.cache, back.replayed), (cold.cache, None));
    }

    #[test]
    fn truncated_and_inflated_records_are_decode_errors() {
        let mut enc = Encoder::new();
        every_field_set().encode(&mut enc);
        let bytes = enc.into_bytes();
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                CompileReport::decode(&mut Decoder::new(&bytes[..cut])).is_err(),
                "cut at {cut}"
            );
        }
        // A phase count far beyond the record ends at the first read
        // past its end instead of allocating for it.
        let mut r = every_field_set();
        r.phases.clear();
        let mut enc = Encoder::new();
        r.encode(&mut enc);
        let mut bomb = enc.into_bytes();
        bomb.pop();
        let mut enc = Encoder::new();
        enc.write_usize(usize::MAX >> 1);
        bomb.extend_from_slice(&enc.into_bytes());
        assert!(CompileReport::decode(&mut Decoder::new(&bomb)).is_err());
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
