//! The layer probe: replays one workload's join pipeline step by step inside
//! this process, on the files the program was given, wrapping each call into
//! a layer's public function in one of the benchmark's own spans.
//!
//! The library surface called here is pinned (see README.md, "Pinned API
//! surface"): a later PR that renames or removes one of these symbols must
//! touch this file, and nothing else in the benchmark.

use crate::json::Json;
use crate::workload::ProbeInput;
use adaptive_spatial_join::core::{
    AgreementGraph, AgreementPolicy, GridSample, KernelKind, SetLabel,
};
use adaptive_spatial_join::data::read_points_csv;
use adaptive_spatial_join::engine::{
    decode_records, encode_records, set_spill_dir, Cluster, ClusterConfig, Dataset, ExecStats,
    HashPartitioner, Journal, JournalRecord, KeyedDataset, Recorder, ShuffleStats,
};
use adaptive_spatial_join::geom::{Point, Rect};
use adaptive_spatial_join::grid::{CellCoord, Grid, GridSpec};
use adaptive_spatial_join::index::{kernels, PointBatch};
use adaptive_spatial_join::join::{to_records, Algorithm, JoinSpec, Record};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Simulated nodes of the program's default cluster.
const NODES: usize = 12;
/// Per-node budget of the probe's spilling shuffle (`--memory-budget 2m`).
const SPILL_BUDGET: u64 = 2 << 20;
const JOURNAL_APPENDS: usize = 200;

/// One span: name, start, end, and the span that caused it.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Spans are kept in memory and written out when the probe ends.
struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Summed duration of every span called `name`, in seconds.
    fn seconds(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// A span's duration minus the part its child spans cover.
    fn self_seconds(&self, name: &str) -> f64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == name))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        self.seconds(name) - children as f64 / 1e9
    }

    fn to_jsonl(&self) -> String {
        self.spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("id", Json::Num(id as f64)),
                    ("name", Json::Str(s.name.into())),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                ])
                .render()
                    + "\n"
            })
            .collect()
    }
}

/// Applies `f` to every item on `threads` workers, keeping the order —
/// the probe's stand-in for the cluster's stage runner, so a probed layer
/// sees the same parallelism as inside the program.
fn par_map<T: Send, R: Send>(items: Vec<T>, threads: usize, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let slots: Vec<Mutex<(Option<T>, Option<R>)>> = items
        .into_iter()
        .map(|t| Mutex::new((Some(t), None)))
        .collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                // Relaxed: the counter only hands out indices; the slot's
                // mutex publishes the data.
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = slots.get(i) else { break };
                let item = slot
                    .lock()
                    .expect("slot lock")
                    .0
                    .take()
                    .expect("each index is claimed once");
                let out = f(item);
                slot.lock().expect("slot lock").1 = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot lock")
                .1
                .expect("every slot was filled")
        })
        .collect()
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

type Keyed = Vec<Vec<(u64, Record)>>;

/// Shuffles both sides on `cluster`; returns the shuffled datasets with the
/// merged byte and execution stats.
fn shuffle_both(
    cluster: &Cluster,
    partitions: usize,
    r: Keyed,
    s: Keyed,
) -> ([KeyedDataset<u64, Record>; 2], ShuffleStats, ExecStats) {
    let partitioner = HashPartitioner::new(partitions);
    let (out_r, mut bytes, mut exec) =
        KeyedDataset::from_partitions(r).shuffle(cluster, &partitioner);
    let (out_s, bytes_s, exec_s) = KeyedDataset::from_partitions(s).shuffle(cluster, &partitioner);
    bytes.merge(&bytes_s);
    exec.accumulate(&exec_s);
    ([out_r, out_s], bytes, exec)
}

const MIB: f64 = 1024.0 * 1024.0;

/// Per-layer metrics of one workload's pipeline, by name.
pub fn run(input: &ProbeInput, scratch: &Path) -> Result<BTreeMap<&'static str, f64>, String> {
    let io = |e: std::io::Error| e.to_string();
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let config = ClusterConfig::with_threads(NODES, threads);
    std::fs::create_dir_all(scratch.join("probe-spill")).map_err(io)?;
    set_spill_dir(scratch.join("probe-spill"));
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut t = Spans::new();

    t.span("probe", |t| -> Result<(), String> {
        // --- data: CSV ingest, as `asj join` does it.
        let (rows_r, rows_s) = t.span("data.csv_parse", |_| -> std::io::Result<_> {
            Ok((read_points_csv(&input.r)?, read_points_csv(&input.s)?))
        }).map_err(io)?;
        let csv_bytes = std::fs::metadata(&input.r).map_err(io)?.len() + std::fs::metadata(&input.s).map_err(io)?.len();
        let points = |rows: &[(u64, Point)]| rows.iter().map(|(_, p)| *p).collect::<Vec<Point>>();
        let (r, s) = (to_records(&points(&rows_r), input.payload), to_records(&points(&rows_s), input.payload));
        let records = (r.len() + s.len()) as f64;
        let mut bbox = Rect::empty();
        r.iter().chain(&s).for_each(|rec| bbox.extend(rec.point));
        let mut spec = JoinSpec::new(bbox.expand(input.eps), input.eps).with_partitions(input.partitions);
        if !input.collect_pairs {
            spec = spec.counting_only();
        }
        // Kept aside for the whole-join run at the end; the copy is harness cost.
        let (r_whole, s_whole) = (r.clone(), s.clone());

        // --- grid + core: sampling, graph of agreements, marking.
        let grid = t.span("grid.build", |_| Grid::new(GridSpec::with_factor(spec.bbox, spec.eps, spec.grid_factor)));
        if !grid.supports_agreements() {
            return Err("probe: the default grid factor must support agreements".into());
        }
        let recorder = Recorder::for_nodes(NODES);
        let cluster = Cluster::new(config).with_recorder(recorder.clone());
        let rdd_r = Dataset::from_vec(r, spec.input_partitions);
        let rdd_s = Dataset::from_vec(s, spec.input_partitions);
        let (sample_r, sample_s) = t.span("core.sample", |_| {
            (rdd_r.sample(&cluster, spec.sample_fraction, spec.seed).0, rdd_s.sample(&cluster, spec.sample_fraction, spec.seed ^ 0x5151).0)
        });
        let graph = t.span("core.graph_build", |_| {
            let sample = GridSample::from_points(&grid, sample_r.iter().map(|rec| rec.point), sample_s.iter().map(|rec| rec.point));
            AgreementGraph::build(&grid, &sample, AgreementPolicy::Lpib)
        });
        let assign = |parts: Vec<Vec<Record>>, label: SetLabel| -> Keyed {
            par_map(parts, threads, |part| {
                let mut out = Vec::with_capacity(part.len() + part.len() / 8);
                let mut cells: Vec<CellCoord> = Vec::with_capacity(4);
                for rec in part {
                    graph.assign(rec.point, label, &mut cells);
                    for &c in &cells[1..] {
                        out.push((grid.cell_index(c) as u64, rec.clone()));
                    }
                    out.push((grid.cell_index(cells[0]) as u64, rec));
                }
                out
            })
        };
        let (keyed_r, keyed_s) = t.span("core.assign", |_| {
            (assign(rdd_r.into_partitions(), SetLabel::R), assign(rdd_s.into_partitions(), SetLabel::S))
        });
        let keyed_len = |k: &Keyed| k.iter().map(Vec::len).sum::<usize>() as f64;
        let replicas = keyed_len(&keyed_r) + keyed_len(&keyed_s) - records;

        // --- engine: the shuffle three ways — in memory, through spill
        // segments, and persisted to a checkpoint store (then replayed).
        let copies: Vec<(Keyed, Keyed)> = (0..3).map(|_| (keyed_r.clone(), keyed_s.clone())).collect();
        let ([shuffled_r, shuffled_s], shuffle, _) = t.span("engine.shuffle", |_| shuffle_both(&cluster, input.partitions, keyed_r, keyed_s));
        let mut copies = copies.into_iter();
        let (spill_r, spill_s) = copies.next().expect("three copies");
        let spill_cluster = Cluster::new(config).with_memory_budget(SPILL_BUDGET);
        let (_, _, spill_exec) = t.span("engine.spill_shuffle", |_| shuffle_both(&spill_cluster, input.partitions, spill_r, spill_s));
        let checkpoint_dir = scratch.join("probe-checkpoints");
        let _ = std::fs::remove_dir_all(&checkpoint_dir);
        for span in ["engine.checkpoint_shuffle", "engine.checkpoint_replay"] {
            let (ck_r, ck_s) = copies.next().expect("three copies");
            let ck_cluster = Cluster::new(config).with_checkpoint_dir(&checkpoint_dir).map_err(io)?;
            let (_, replayed, _) = t.span(span, |_| shuffle_both(&ck_cluster, input.partitions, ck_r, ck_s));
            if replayed != shuffle {
                return Err(format!("probe: {span} moved different bytes than the in-memory shuffle"));
            }
        }
        let checkpoint_bytes = dir_bytes(&checkpoint_dir) as f64;

        // --- engine: wire codec over the shuffled R side, journal appends.
        let encoded: Vec<Vec<u8>> = t.span("engine.wire_encode", |_| shuffled_r.partitions().iter().map(|p| encode_records(p)).collect());
        let wire_bytes: usize = encoded.iter().map(Vec::len).sum();
        t.span("engine.wire_decode", |_| -> Result<(), String> {
            for (bytes, part) in encoded.iter().zip(shuffled_r.partitions()) {
                let decoded = decode_records::<u64, Record>(bytes, part.len() as u64).map_err(|e| e.to_string())?;
                std::hint::black_box(decoded);
            }
            Ok(())
        })?;
        let journal = Journal::create(scratch.join("probe-journal.log")).map_err(io)?;
        let mut append_us = Vec::with_capacity(JOURNAL_APPENDS);
        t.span("engine.journal", |_| -> std::io::Result<()> {
            for job in 0..JOURNAL_APPENDS as u64 {
                let start = Instant::now();
                journal.append(&JournalRecord::Grant { job })?;
                append_us.push(start.elapsed().as_secs_f64() * 1e6);
            }
            Ok(())
        }).map_err(io)?;

        // --- index: columnar batches, then the partition-local kernel.
        let model = cluster.kernel_cost_model(kernels::calibrate_cost_model);
        let tasks: Vec<_> = shuffled_r.into_partitions().into_iter().zip(shuffled_s.into_partitions()).collect();
        let batches = t.span("index.batch_build", |_| {
            par_map(tasks, threads, |(rs, ss)| {
                let (pos, id) = (|r: &Record| r.point, |r: &Record| r.id);
                (PointBatch::from_keyed(&rs, pos, id), PointBatch::from_keyed(&ss, pos, id))
            })
        });
        let batch_points: usize = batches.iter().map(|(a, b)| a.num_points() + b.num_points()).sum();
        // [candidates, results, nested-loop picks, plane-sweep picks, grid-bucket picks]
        let tallies = t.span("index.kernel", |_| {
            par_map(batches, threads, |(br, bs)| {
                let mut tally = [0u64; 5];
                let mut pairs: Vec<(u64, u64)> = Vec::new();
                let (mut gi, mut gj) = (0, 0);
                while gi < br.num_groups() && gj < bs.num_groups() {
                    match br.keys()[gi].cmp(&bs.keys()[gj]) {
                        std::cmp::Ordering::Less => gi += 1,
                        std::cmp::Ordering::Greater => gj += 1,
                        std::cmp::Ordering::Equal => {
                            let (ids_a, ids_b) = (br.group_ids(gi), bs.group_ids(gj));
                            let outcome = kernels::local_join_view(spec.kernel, &model, spec.eps, br.group(gi), bs.group(gj), |i, j| {
                                if spec.collect_pairs {
                                    pairs.push((ids_a[i], ids_b[j]));
                                }
                            });
                            tally[0] += outcome.stats.candidates;
                            tally[1] += outcome.stats.results;
                            tally[match outcome.kind {
                                KernelKind::NestedLoop => 2,
                                KernelKind::PlaneSweep => 3,
                                KernelKind::GridBucket => 4,
                            }] += 1;
                            gi += 1;
                            gj += 1;
                        }
                    }
                }
                std::hint::black_box(pairs);
                tally
            })
        });
        let kernel = tallies.iter().fold([0u64; 5], |mut sum, t| {
            sum.iter_mut().zip(t).for_each(|(a, b)| *a += b);
            sum
        });

        // --- join: the same inputs through the library's own entry point.
        let mut whole_cluster = Cluster::new(config);
        if let Some(budget) = input.memory_budget {
            whole_cluster = whole_cluster.with_memory_budget(budget);
        }
        let out = t.span("join.whole", |_| Algorithm::Lpib.run(&whole_cluster, &spec, r_whole, s_whole));
        if out.result_count != kernel[1] || out.replicated_total() as f64 != replicas {
            return Err(format!(
                "probe: step-by-step replay found {} results / {replicas} replicas, Algorithm::run {} / {}",
                kernel[1], out.result_count, out.replicated_total()
            ));
        }

        let pool = |name| recorder.counter_value("shuffle", name).unwrap_or(0) as f64;
        let mut exec = out.metrics.construction.clone();
        exec.accumulate(&out.metrics.join);
        let shuffle_s = t.seconds("engine.shuffle");
        let mean_partition = shuffle.total_bytes() as f64 / shuffle.partition_bytes.len().max(1) as f64;
        append_us.sort_by(f64::total_cmp);
        let probed: f64 = ["core.sample", "core.graph_build", "core.assign", "engine.shuffle", "index.batch_build", "index.kernel"]
            .iter()
            .map(|name| t.self_seconds(name))
            .sum();
        m.extend([
            ("data.csv_parse_s", t.seconds("data.csv_parse")),
            ("data.csv_parse_mb_s", csv_bytes as f64 / 1e6 / t.seconds("data.csv_parse")),
            ("data.records", records),
            ("grid.cells", grid.num_cells() as f64),
            ("core.sample_s", t.seconds("core.sample")),
            ("core.graph_build_s", t.seconds("core.graph_build")),
            ("core.marked_edges", graph.marked_edge_count() as f64),
            ("core.locked_edges", graph.locked_edge_count() as f64),
            ("core.broadcast_bytes", graph.broadcast_bytes() as f64),
            ("core.assign_s", t.seconds("core.assign")),
            ("core.assign_ns_per_rec", t.seconds("core.assign") * 1e9 / records),
            ("core.replicas", replicas),
            ("engine.shuffle_s", shuffle_s),
            ("engine.shuffle_mrec_s", shuffle.records as f64 / 1e6 / shuffle_s),
            ("engine.shuffle_total_mib", shuffle.total_bytes() as f64 / MIB),
            ("engine.peak_partition_kib", shuffle.peak_partition_bytes() as f64 / 1024.0),
            ("engine.partition_skew", shuffle.peak_partition_bytes() as f64 / mean_partition),
            ("engine.bufpool_hit_ratio", pool("pool_hits") / (pool("pool_hits") + pool("pool_misses")).max(1.0)),
            ("engine.wire_encode_mb_s", wire_bytes as f64 / 1e6 / t.seconds("engine.wire_encode")),
            ("engine.wire_decode_mb_s", wire_bytes as f64 / 1e6 / t.seconds("engine.wire_decode")),
            ("engine.spill_shuffle_s", t.seconds("engine.spill_shuffle")),
            ("engine.spill_mib", spill_exec.spilled_bytes as f64 / MIB),
            ("engine.spill_overhead_ratio", t.seconds("engine.spill_shuffle") / shuffle_s),
            ("engine.peak_sim_memory_kib", spill_exec.peak_memory_bytes as f64 / 1024.0),
            ("engine.checkpoint_shuffle_s", t.seconds("engine.checkpoint_shuffle")),
            ("engine.checkpoint_mib", checkpoint_bytes / MIB),
            ("engine.checkpoint_overhead_ratio", t.seconds("engine.checkpoint_shuffle") / shuffle_s),
            ("engine.checkpoint_replay_s", t.seconds("engine.checkpoint_replay")),
            ("engine.checkpoint_bytes_per_input_byte", checkpoint_bytes / shuffle.total_bytes() as f64),
            ("engine.journal_append_us", append_us[append_us.len() / 2]),
            ("engine.sim_time_s", out.metrics.simulated_time().as_secs_f64()),
            ("engine.sim_imbalance", out.metrics.join.imbalance()),
            ("engine.attempts", exec.attempts as f64),
            ("engine.retries", exec.retries as f64),
            ("index.batch_build_s", t.seconds("index.batch_build")),
            ("index.batch_points", batch_points as f64),
            ("index.kernel_s", t.seconds("index.kernel")),
            ("index.kernel_candidates", kernel[0] as f64),
            ("index.kernel_results", kernel[1] as f64),
            ("index.kernel_ns_per_candidate", t.seconds("index.kernel") * 1e9 / kernel[0].max(1) as f64),
            ("index.kernel_useful_ratio", kernel[1] as f64 / kernel[0].max(1) as f64),
            ("index.kernel_picks_nl", kernel[2] as f64),
            ("index.kernel_picks_ps", kernel[3] as f64),
            ("index.kernel_picks_bucket", kernel[4] as f64),
            ("join.inproc_wall_s", t.seconds("join.whole")),
            ("join.construction_wall_s", out.metrics.construction.wall.as_secs_f64()),
            ("join.join_wall_s", out.metrics.join.wall.as_secs_f64()),
            ("join.driver_s", out.metrics.driver.as_secs_f64()),
            ("join.unattributed_s", t.seconds("join.whole") - probed),
        ]);
        Ok(())
    })?;
    std::fs::write(scratch.join("probe-spans.jsonl"), t.to_jsonl()).map_err(io)?;
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_child_spans() {
        let mut t = Spans::new();
        t.span("outer", |t| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let (outer, inner) = (t.seconds("outer"), t.seconds("inner"));
        assert!(inner >= 0.020 && outer >= inner + 0.005);
        assert!((t.self_seconds("outer") - (outer - inner)).abs() < 1e-9);
        assert_eq!(t.self_seconds("inner"), inner);
        let lines: Vec<Json> = t
            .to_jsonl()
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .collect();
        assert_eq!(lines[1].get("parent").and_then(Json::as_u64), Some(0));
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
    }

    #[test]
    fn par_map_keeps_order_on_any_thread_count() {
        for threads in [1, 2, 7] {
            let out = par_map((0..100).collect(), threads, |i: u64| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<u64>>());
        }
        assert!(par_map(Vec::<u8>::new(), 2, |b| b).is_empty());
    }
}
