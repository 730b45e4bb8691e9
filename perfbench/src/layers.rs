//! Per-layer measurements of the batch pipeline's crates, made from
//! outside through their public functions in the traced pass.
//!
//! Each function times the calls the pipeline makes, on the workload's
//! own dataset and outputs, and records the result under the layer's
//! metric name (see the README for which end-to-end metric each one
//! should move).

use crate::pipeline::{OpResult, Pipe};
use crate::report::Report;
use crate::stats::{median, now, time_median};
use crate::trace::Tracer;
use crate::{BenchError, Config};
use meme_annotate::annotator::annotate_clusters_with_stats;
use meme_cluster::try_dbscan;
use meme_core::pipeline::Pipeline;
use meme_core::runner::{
    decode_checkpoint, encode_checkpoint, Checkpoint, PipelineRunner, StageId,
};
use meme_imaging::resize::{resize_box_into_f64, BoxResizeScratch};
use meme_imaging::{Dct2d, Image};
use meme_index::{symmetric_neighbors, FallbackIndex, HammingIndex, HashGroups, QueryScratch};
use meme_metrics::{Metrics, Snapshot};
use meme_phash::{HashScratch, ImageHasher, PHash, PerceptualHasher};
use meme_simweb::{RenderCache, RenderStats, SimConfig};
use std::hint::black_box;
use std::sync::Barrier;

/// pHash resizes to 32×32 and keeps the top-left 8×8 DCT block.
const PLANE: usize = 32;
const BLOCK: usize = 8;

/// Images sampled for the per-image kernel timings.
const KERNEL_SAMPLE: usize = 2048;

/// What the traced pass hands the layer measurements.
pub struct Ctx<'a> {
    /// Run configuration.
    pub cfg: &'a Config,
    /// The workload's dataset and pipeline configuration.
    pub pipe: &'a Pipe,
    /// The traced op's outputs.
    pub op: &'a OpResult,
    /// The traced registries (set-up and op) merged.
    pub registry: &'a Snapshot,
    /// Wall time of Step 7 in the traced op.
    pub hawkes_fit_s: f64,
    /// The post-hash checkpoint, when the workload made one.
    pub checkpoint: Option<&'a [u8]>,
}

/// Every pipeline-layer metric: simweb, imaging/phash, core, index,
/// cluster, annotate, hawkes and metrics.
pub fn pipeline_layers(
    ctx: &Ctx<'_>,
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<(), BenchError> {
    simweb(ctx, tr, report)?;
    kernel(ctx, tr, report);
    core(ctx, tr, report)?;
    index_cluster_annotate(ctx, tr, report);
    hawkes(ctx, report);
    metrics_layer(tr, report);
    Ok(())
}

fn simweb(ctx: &Ctx<'_>, tr: &mut Tracer, report: &mut Report) -> Result<(), BenchError> {
    let sim = SimConfig::new(ctx.cfg.scale(), ctx.cfg.seed);
    let (gen, _) = tr.span("simweb.generate", |_| time_median(3, || sim.try_generate()));
    report.layer("simweb.generate_s", gen, "s");
    let dataset = &ctx.pipe.dataset;
    let mut stats = RenderStats::default();
    let (_, span) = tr.span("simweb.render", |_| {
        let cache = RenderCache::build(dataset);
        for post in &dataset.posts {
            black_box(dataset.render_post_cached(post, &cache, &mut stats));
        }
    });
    report.layer("simweb.render_s", tr.secs(span), "s");
    let lookups = stats.hits + stats.misses;
    report.layer(
        "simweb.render_cache_hit_ratio",
        stats.hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    Ok(())
}

/// Resize, DCT and the whole kernel per image, on pre-rendered images;
/// every kernel hash is checked against the pipeline's hash stage.
fn kernel(ctx: &Ctx<'_>, tr: &mut Tracer, report: &mut Report) {
    let dataset = &ctx.pipe.dataset;
    let n = dataset.posts.len();
    let stride = n.div_ceil(KERNEL_SAMPLE).max(1);
    let cache = RenderCache::build(dataset);
    let mut stats = RenderStats::default();
    let sample: Vec<(usize, Image)> = (0..n)
        .step_by(stride)
        .map(|i| {
            let img = dataset.render_post_cached(&dataset.posts[i], &cache, &mut stats);
            (i, img.as_image().clone())
        })
        .collect();
    let per_image = |secs: f64| secs * 1e9 / sample.len().max(1) as f64;

    let mut resize_scratch = BoxResizeScratch::new();
    let mut planes = vec![vec![0.0f64; PLANE * PLANE]; sample.len()];
    let (resize, _) = tr.span("imaging.resize", |_| {
        time_median(3, || {
            for ((_, img), plane) in sample.iter().zip(planes.iter_mut()) {
                resize_box_into_f64(img, PLANE, PLANE, &mut resize_scratch, plane);
            }
        })
    });
    let dct = Dct2d::new(PLANE);
    let mut tmp = vec![0.0f64; BLOCK * PLANE];
    let mut block = vec![0.0f64; BLOCK * BLOCK];
    let (dct_s, _) = tr.span("imaging.dct", |_| {
        time_median(3, || {
            for plane in &planes {
                dct.forward_topleft_into(plane, BLOCK, &mut tmp, &mut block);
                black_box(&block);
            }
        })
    });
    let hasher = PerceptualHasher::new();
    let mut scratch = HashScratch::new();
    let mut mismatches = 0usize;
    let (kernel_s, _) = tr.span("phash.kernel", |_| {
        time_median(3, || {
            mismatches = 0;
            for (i, img) in &sample {
                if hasher.hash_into(img, &mut scratch) != ctx.op.output.post_hashes[*i] {
                    mismatches += 1;
                }
            }
        })
    });
    report.layer("imaging.resize_ns", per_image(resize), "ns");
    report.layer("imaging.dct_ns", per_image(dct_s), "ns");
    report.layer("phash.kernel_ns", per_image(kernel_s), "ns");
    report.count(sample.len() as u64, mismatches as u64);
    if mismatches > 0 {
        report.notes.push(format!(
            "{mismatches} kernel hashes differ from the hash stage's"
        ));
    }
}

fn span_secs(snap: &Snapshot, path: &str) -> f64 {
    snap.spans.get(path).map_or(0.0, |s| s.total_secs)
}

fn core(ctx: &Ctx<'_>, tr: &mut Tracer, report: &mut Report) -> Result<(), BenchError> {
    for stage in StageId::ALL {
        let secs = span_secs(ctx.registry, &format!("pipeline/{}", stage.name()));
        report.layer(&format!("core.stage.{}_s", stage.name()), secs, "s");
    }
    report.layer(
        "core.influence_s",
        span_secs(ctx.registry, "pipeline/influence"),
        "s",
    );

    let pipe = ctx.pipe;
    let bytes = match ctx.checkpoint {
        Some(b) => b.to_vec(),
        None => {
            let mut ckpt = Checkpoint::fresh(&pipe.dataset, pipe.config.clone());
            ckpt.state.post_hashes = Some(ctx.op.output.post_hashes.clone());
            ckpt.completed.push(StageId::Hash);
            encode_checkpoint(&ckpt)
        }
    };
    let (decode, _) = tr.span("core.checkpoint_decode", |_| {
        time_median(3, || decode_checkpoint(&bytes).map(|c| c.completed.len()))
    });
    let ckpt = decode_checkpoint(&bytes).map_err(BenchError::Checkpoint)?;
    let (encode, _) = tr.span("core.checkpoint_encode", |_| {
        time_median(3, || encode_checkpoint(&ckpt).len())
    });
    report.layer("core.checkpoint_decode_s", decode, "s");
    report.layer("core.checkpoint_encode_s", encode, "s");
    report.layer("core.checkpoint_bytes", bytes.len() as f64, "bytes");

    // Runner overhead: the supervised and the plain runner resume the
    // same post-hash checkpoint from disk, interleaved, two each.
    let dir = ctx.cfg.scratch_dir().join("runners");
    std::fs::create_dir_all(&dir).map_err(|e| BenchError::io(dir.display(), e))?;
    let path = dir.join("post-hash.ckpt");
    let mut plain = Vec::new();
    let mut supervised = Vec::new();
    let (res, _) = tr.span("core.supervise_overhead", |_| -> Result<(), BenchError> {
        for _ in 0..2 {
            for sup in [true, false] {
                std::fs::write(&path, &bytes).map_err(|e| BenchError::io(path.display(), e))?;
                let t = now();
                let medoids = if sup {
                    pipe.runner(&Metrics::disabled())
                        .with_checkpoint(&path)
                        .resume(&pipe.dataset)
                        .map(|r| r.outcome.expect_complete().medoid_hashes.len())
                } else {
                    PipelineRunner::new(Pipeline::new(pipe.config.clone()))
                        .with_checkpoint(&path)
                        .resume(&pipe.dataset)
                        .map(|o| o.expect_complete().medoid_hashes.len())
                };
                let dt = t.elapsed().as_secs_f64();
                if medoids.map_err(|source| BenchError::Pipeline {
                    during: "runner resume",
                    source,
                })? != ctx.op.output.medoid_hashes.len()
                {
                    return Err(BenchError::Unexpected(
                        "runners disagree on the resumed output".to_string(),
                    ));
                }
                if sup {
                    supervised.push(dt)
                } else {
                    plain.push(dt)
                }
            }
        }
        Ok(())
    });
    res?;
    let _ = std::fs::remove_dir_all(&dir);
    report.layer(
        "core.supervise_overhead_ratio",
        median(&supervised) / median(&plain),
        "ratio",
    );
    Ok(())
}

fn index_cluster_annotate(ctx: &Ctx<'_>, tr: &mut Tracer, report: &mut Report) {
    let pipe = ctx.pipe;
    let out = &ctx.op.output;
    let eps = pipe.config.dbscan.eps;
    let fringe: Vec<PHash> = pipe
        .dataset
        .posts
        .iter()
        .filter(|p| p.community.is_fringe())
        .map(|p| out.post_hashes[p.id])
        .collect();
    let groups = HashGroups::new(&fringe);
    report.layer(
        "index.dedup_collapse_ratio",
        groups.collapse_ratio(),
        "ratio",
    );
    let (build, _) = tr.span("index.build", |_| {
        time_median(3, || FallbackIndex::build(groups.unique().to_vec(), eps))
    });
    report.layer("index.build_ms", build * 1e3, "ms");
    let index = FallbackIndex::build(groups.unique().to_vec(), eps);
    let ((neighbors, nstats), span) = tr.span("index.neighbors", |_| {
        symmetric_neighbors(&index, &groups, eps, pipe.threads)
    });
    report.layer("index.neighbors_s", tr.secs(span), "s");
    report.layer(
        "index.verify_yield",
        nstats.unique_pairs as f64 / nstats.candidates.max(1) as f64,
        "ratio",
    );

    let min_pts = pipe.config.dbscan.min_pts;
    let (dbscan_s, _) = tr.span("cluster.dbscan", |_| {
        time_median(3, || try_dbscan(&neighbors, min_pts))
    });
    report.layer("cluster.dbscan_ms", dbscan_s * 1e3, "ms");
    let clustering = match try_dbscan(&neighbors, min_pts) {
        Ok(c) => c,
        Err(e) => {
            report.count(1, 1);
            report.notes.push(format!("dbscan: {e}"));
            return;
        }
    };
    let (medoids_s, _) = tr.span("cluster.medoids", |_| {
        time_median(3, || clustering.try_medoids(&fringe))
    });
    report.layer("cluster.medoids_ms", medoids_s * 1e3, "ms");
    let same = clustering.labels() == out.clustering.labels();
    report.count(1, u64::from(!same));
    if !same {
        report
            .notes
            .push("standalone DBSCAN differs from the cluster stage".to_string());
    }

    let theta = pipe.config.theta;
    let (annotate_s, _) = tr.span("annotate.annotate", |_| {
        time_median(3, || {
            annotate_clusters_with_stats(&out.medoid_hashes, &out.site, theta)
        })
    });
    report.layer("annotate.annotate_ms", annotate_s * 1e3, "ms");

    let annotated: Vec<PHash> = out
        .annotated_clusters()
        .iter()
        .map(|&c| out.medoid_hashes[c])
        .collect();
    let assoc = FallbackIndex::build(annotated, theta);
    let posts = HashGroups::new(&out.post_hashes);
    let mut scratch = QueryScratch::new();
    let mut hits = Vec::new();
    let (assoc_s, _) = tr.span("index.assoc_query", |_| {
        time_median(3, || {
            for &h in posts.unique() {
                assoc.radius_query_into(h, theta, &mut scratch, &mut hits);
            }
        })
    });
    report.layer(
        "index.assoc_query_ns",
        assoc_s * 1e9 / posts.len_unique().max(1) as f64,
        "ns",
    );
}

fn hawkes(ctx: &Ctx<'_>, report: &mut Report) {
    let counters = &ctx.registry.counters;
    let get = |k: &str| counters.get(k).copied().unwrap_or(0) as f64;
    report.layer("hawkes.fit_s", ctx.hawkes_fit_s, "s");
    report.layer(
        "hawkes.em_iterations",
        get("hawkes.em_iterations_total"),
        "count",
    );
    report.layer(
        "hawkes.skipped_ratio",
        get("hawkes.clusters_skipped") / get("hawkes.clusters_total").max(1.0),
        "ratio",
    );
}

/// Registry write costs: one thread counting, one thread timing spans,
/// and two threads counting into the same registry at once.
fn metrics_layer(tr: &mut Tracer, report: &mut Report) {
    const N: u32 = 200_000;
    let metrics = Metrics::enabled();
    let (add, _) = tr.span("metrics.add", |_| {
        time_median(3, || (0..N).for_each(|_| metrics.add("bench.add", 1)))
    });
    let (span, _) = tr.span("metrics.span", |_| {
        time_median(3, || {
            (0..N).for_each(|_| {
                black_box(metrics.span("bench/span").finish());
            })
        })
    });
    let barrier = Barrier::new(2);
    let (add2, _) = tr.span("metrics.add_2t", |_| {
        time_median(3, || {
            std::thread::scope(|s| {
                let worker = || {
                    barrier.wait();
                    (0..N).for_each(|_| metrics.add("bench.add2", 1));
                };
                s.spawn(worker);
                s.spawn(worker);
            })
        })
    });
    let per_call = |secs: f64| secs * 1e9 / f64::from(N);
    report.layer("metrics.add_ns", per_call(add), "ns");
    report.layer("metrics.span_ns", per_call(span), "ns");
    report.layer("metrics.add_ns_2t", per_call(add2), "ns");
}
