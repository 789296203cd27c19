// apfbench — end-to-end and per-layer benchmark of the APF stack.
//
//   apfbench --workload serve-mixed|batch-uniform|train-dp --seed N
//            --seconds S --trace 0|1 [--trace-out PATH]
//
// Every workload runs the same model, UNETR at z=128, patch 4, d=64,
// depth 4, 4 heads, mlp ratio 2, base_channels 8, over data::SyntheticPaip
// tiles, with the scheduler width pinned to 2 (apf::set_num_threads):
//
//   serve-mixed    one generator thread keeps 4 requests in flight (closed
//                  loop) to a serve::Server (2 workers, max_batch 4,
//                  exact-length buckets, cache on). Tiles cycle through a
//                  pool of 256; 1 request in 4 repeats one of the last 16.
//   batch-uniform  one caller: UniformPatcher(4) (1024 tokens per tile),
//                  then InferenceEngine prepare -> forward -> decode, one
//                  tile per call, no cache.
//   train-dp       dist::run_parallel(2), one replica per rank, adaptive
//                  patcher at seq_len 256, 2 tiles per rank per step; a
//                  fixed number of steps of loss -> backward ->
//                  allreduce_gradients -> AdamW::step.
//
// Inputs (tiles, the duplicate schedule, the training order) are generated
// from --seed before any clock starts. setup_s is the median of several
// set-ups of the program itself (model build, engine / server / task
// construction, warm-up or pre-processing). Output checks run after the
// timed region; a mismatch counts as a failed op and makes the exit code 1.
//
// --trace 1 records spans around the benchmark's calls into the library on
// alternate blocks of kTraceBlock ops (requests, calls or steps), reports
// trace.overhead_pct from the traced vs the untraced ops of that one pass,
// and writes the spans as Chrome trace_event JSON to --trace-out.
//
// Output: a context line {"context": {...}} (host, width, backend,
// precision, poison flag, seed, hypervisor steal share, op counts), then as
// the LAST line {"correct", "attempted", "failed", "measured"}: every metric
// the run measured, by name. apfbench/run.py turns it into the result that
// BENCHMARK.json describes (units, and 0 for a layer the workload bypasses).

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/apf_config.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "data/synthetic.h"
#include "dist/comm.h"
#include "models/patcher.h"
#include "models/unetr.h"
#include "nn/optim.h"
#include "quadtree/quadtree.h"
#include "serve/engine.h"
#include "serve/server.h"
#include "tensor/gemm_backend.h"
#include "tensor/quantize.h"
#include "train/task.h"
#include "train/trainer.h"
#include "trace.h"

namespace {

using namespace apf;
using apfbench::Clock;
using apfbench::Span;
using apfbench::Tracer;

// ------------------------------------------------------------ constants

constexpr std::int64_t kZ = 128;
constexpr std::int64_t kPatch = 4;
constexpr int kWidth = 2;        // pinned scheduler width
/// setup_s is the median of 2 x kSetupReps set-ups: kSetupReps before the
/// measured region (the last one is measured) and kSetupReps after it
/// (discarded), so host noise during one phase cannot move the median.
constexpr int kSetupReps = 10;
/// Traced runs trace ops [0, kTraceBlock), leave [kTraceBlock, 2 kTraceBlock)
/// untraced, and so on.
constexpr std::int64_t kTraceBlock = 8;

// serve-mixed
constexpr std::int64_t kPoolTiles = 256;
constexpr int kInFlight = 4;
constexpr std::int64_t kDupWindow = 16;
constexpr std::int64_t kCacheBytes = 8ll << 20;  // below the pool's footprint
constexpr std::int64_t kScheduleLen = 1 << 15;

// batch-uniform
constexpr std::int64_t kUniformTiles = 128;
constexpr std::int64_t kCallTiles = 1;
constexpr int kUniformWarmCalls = 2;

// train-dp
constexpr int kRanks = 2;
constexpr std::int64_t kTilesPerRankStep = 2;
constexpr std::int64_t kTrainTiles = 128;  // 64 per rank shard
constexpr std::int64_t kHeldOutTiles = 48;
constexpr std::int64_t kTrainSeqLen = 256;
constexpr float kLearningRate = 1e-3f;
/// train-dp runs a fixed step count (so dice is a function of the seed and
/// --seconds alone), sized to take about --seconds on a 4-vCPU x86 host.
constexpr double kTrainStepsPerSecond = 5.0;

// ------------------------------------------------------------ metrics

/// One run of a workload. Per-layer metrics a workload does not exercise
/// are absent here (the layer is bypassed).
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, double> metrics;
  /// Latency samples behind latency_p90_ms. The p90 is only a gate with at
  /// least 10 samples beyond it, i.e. 100 samples; fewer warns on stderr.
  std::size_t latency_samples = 0;
  std::string precision;

  void fail(std::string what) {
    ++failed;
    errors.push_back(std::move(what));
  }
};

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// A "Vm...:" field of /proc/self/status (VmRSS = resident now, VmHWM = its
/// high-water mark), in MiB.
double proc_status_mb(const std::string& field) {
  std::ifstream f("/proc/self/status");
  std::string key;
  double kib = 0.0;
  while (f >> key) {
    if (key == field + ":" && f >> kib) return kib / 1024.0;
    f.ignore(1 << 12, '\n');
  }
  return 0.0;
}

/// Whether op k of a traced run falls in a traced block (see kTraceBlock).
bool traced_op(std::int64_t k) { return (k / kTraceBlock) % 2 == 0; }

/// The tracer to record op k with: tr on traced blocks, null otherwise.
Tracer* tracer_for(Tracer* tr, std::int64_t k) { return traced_op(k) ? tr : nullptr; }

/// trace.overhead_pct: the median time of the traced ops over that of the
/// untraced ops interleaved with them, minus one, in percent.
double overhead_pct(const std::vector<std::int64_t>& ops,
                    const std::vector<double>& op_ms) {
  std::vector<double> on, off;
  for (std::size_t i = 0; i < ops.size(); ++i)
    (traced_op(ops[i]) ? on : off).push_back(op_ms[i]);
  if (on.empty() || off.empty()) return 0.0;
  return 100.0 * (median(on) / median(off) - 1.0);
}

/// Pooled binary dice over tiles: 2 sum|P∩T| / (sum|P| + sum|T|).
struct DiceAccumulator {
  double inter = 0.0, pred = 0.0, truth = 0.0;
  void add(const img::Image& mask, const img::Image& target) {
    for (std::size_t i = 0; i < mask.data.size(); ++i) {
      const double p = mask.data[i] > 0.5f ? 1.0 : 0.0;
      const double t = target.data[i] > 0.5f ? 1.0 : 0.0;
      inter += p * t;
      pred += p;
      truth += t;
    }
  }
  double value() const {
    return pred + truth > 0.0 ? 2.0 * inter / (pred + truth) : 1.0;
  }
};

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

bool same_pixels(const img::Image& a, const img::Image& b) {
  return a.h == b.h && a.w == b.w && a.c == b.c && a.data == b.data;
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t k) {
  return Rng(seed * 0x9e3779b97f4a7c15ULL + k).next_u64();
}

// ------------------------------------------------------------ model + data

std::unique_ptr<models::Unetr2d> build_model() {
  models::UnetrConfig cfg;
  cfg.enc.token_dim = 3 * kPatch * kPatch;
  cfg.enc.d_model = 64;
  cfg.enc.depth = 4;
  cfg.enc.heads = 4;
  cfg.enc.mlp_ratio = 2;
  cfg.image_size = kZ;
  cfg.grid = 16;
  cfg.base_channels = 8;
  Rng rng(1);  // weights are part of the program, not of the inputs
  return std::make_unique<models::Unetr2d>(cfg, rng);
}

core::ApfConfig adaptive_config(std::int64_t seq_len) {
  core::ApfConfig c = core::ApfConfig::for_resolution(kZ);
  c.patch_size = kPatch;
  c.min_patch = kPatch;
  c.max_depth = 8;
  c.seq_len = seq_len;
  return c;
}

std::vector<data::SegSample> make_tiles(std::uint64_t seed,
                                        std::int64_t first,
                                        std::int64_t count) {
  data::PaipConfig pc;
  pc.resolution = kZ;
  pc.seed = seed;
  const data::SyntheticPaip gen(pc);
  std::vector<data::SegSample> tiles;
  tiles.reserve(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) tiles.push_back(gen.sample(first + i));
  return tiles;
}

/// Spans around the adaptive patcher's three stages on the workload's tiles
/// (traced runs only; outside the timed region): AdaptivePatcher::edge_map,
/// the quadtree built from that edge map (the same config mapping as
/// AdaptivePatcher::build_tree), and core::extract_leaf_patches.
void trace_patcher_stages(const std::vector<data::SegSample>& tiles,
                          std::int64_t count, const core::ApfConfig& cfg,
                          Tracer& tr, Outcome& out) {
  const core::AdaptivePatcher patcher(cfg);
  qt::QuadtreeConfig qc;
  qc.split_value = cfg.split_value;
  qc.max_depth = cfg.max_depth;
  qc.min_size = std::max<std::int64_t>(cfg.min_patch, 1);
  qc.enforce_balance = cfg.enforce_balance;
  std::vector<double> tokens;
  count = std::min<std::int64_t>(count, static_cast<std::int64_t>(tiles.size()));
  for (std::int64_t i = 0; i < count; ++i) {
    const img::Image& im = tiles[static_cast<std::size_t>(i)].image;
    const img::Image edge = [&] {
      Span s(&tr, "patcher.edge_map", i);
      return patcher.edge_map(im);
    }();
    const qt::Quadtree tree = [&] {
      Span s(&tr, "patcher.quadtree", i);
      return qt::Quadtree(edge, qc);
    }();
    Span s(&tr, "patcher.resample", i);
    const core::PatchSequence seq =
        core::extract_leaf_patches(im, tree, cfg.patch_size);
    tokens.push_back(static_cast<double>(seq.num_valid()));
  }
  out.metrics["patcher.edge_map_ms"] = mean(tr.durations_ms("patcher.edge_map"));
  out.metrics["patcher.quadtree_ms"] = mean(tr.durations_ms("patcher.quadtree"));
  out.metrics["patcher.resample_ms"] = mean(tr.durations_ms("patcher.resample"));
  out.metrics["patcher.tokens_per_img"] = mean(tokens);
}

void record_scheduler(const SchedulerStats& before, const SchedulerStats& after,
                      double images, Outcome& out) {
  if (images <= 0.0) return;
  out.metrics["sched.steals_per_img"] =
      static_cast<double>(after.steals - before.steals) / images;
  out.metrics["sched.forward_tasks_per_img"] =
      static_cast<double>(after.forward_tasks - before.forward_tasks) / images;
  out.metrics["sched.panel_tasks_per_img"] =
      static_cast<double>(after.panel_tasks - before.panel_tasks) / images;
}

// ------------------------------------------------------------ serve-mixed

struct ServeInputs {
  std::vector<data::SegSample> pool;
  img::Image warm;  // the set-up's warm-up request, disjoint from the pool
  /// Pool index per request: the next pool tile in cycle order, or (1 in
  /// 4) a repeat of one of the last kDupWindow requests.
  std::vector<std::int32_t> schedule;
};

ServeInputs make_serve_inputs(std::uint64_t seed) {
  ServeInputs in;
  in.pool = make_tiles(seed, 0, kPoolTiles);
  in.warm = make_tiles(seed, kPoolTiles, 1).at(0).image;
  Rng rng(seed ^ 0x5e7e5e7eULL);
  std::int64_t next_fresh = 0;
  for (std::int64_t k = 0; k < kScheduleLen; ++k) {
    const bool dup = k >= kDupWindow && rng.next_u64() % 4 == 0;
    std::int32_t tile;
    if (dup) {
      const std::int64_t back =
          1 + static_cast<std::int64_t>(rng.next_u64() % kDupWindow);
      tile = in.schedule[static_cast<std::size_t>(k - back)];
    } else {
      tile = static_cast<std::int32_t>(next_fresh++ % kPoolTiles);
    }
    in.schedule.push_back(tile);
  }
  return in;
}

serve::ServerConfig serve_config() {
  serve::ServerConfig c;
  c.engine.patcher = adaptive_config(0);  // natural length
  c.engine.max_batch = 4;
  c.num_workers = 2;
  c.max_queue = 64;
  c.batch_deadline_ms = 2.0;
  c.bucket_granularity = 1;  // exact-length buckets
  c.cache.capacity_bytes = kCacheBytes;
  return c;
}

/// Per-request record written by the completion waiters.
struct Completion {
  std::int64_t k = 0;  ///< request index
  double latency_ms = 0.0;
  Clock::time_point done;
  serve::InferenceStats stats;
};

/// A response kept for the serial-equality check.
struct KeptResponse {
  std::int32_t tile = 0;
  bool hit = false;
  Tensor logits;
  img::Image mask;
};

Outcome run_serve_mixed(const ServeInputs& in, std::uint64_t seed,
                        double seconds, Tracer* tr) {
  Outcome out;
  const serve::ServerConfig scfg = serve_config();

  // ---- set-up: model build, server construction and the first response
  // (one warm-up request on pixels disjoint from the pool).
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<models::Unetr2d> model;
  std::vector<double> setups;
  auto set_up = [&] {
    server.reset();
    model.reset();
    const Clock::time_point t0 = Clock::now();
    model = build_model();
    server = std::make_unique<serve::Server>(*model, scfg);
    (void)server->submit(in.warm).get();
    setups.push_back(seconds_between(t0, Clock::now()));
  };
  for (int rep = 0; rep < kSetupReps; ++rep) set_up();
  (void)server->stats_since_last();  // open the measured window

  // ---- closed loop: one generator, kInFlight completion waiters.
  std::mutex mu;
  std::condition_variable cv;
  struct Slot {
    bool busy = false;
    bool has_job = false;
    std::future<serve::InferenceResult> fut;
    std::int64_t k = 0;
    std::int64_t req_span = -1;
    Clock::time_point submitted;
  };
  std::vector<Slot> slots(kInFlight);
  bool stop = false;
  std::vector<Completion> done;
  std::vector<KeptResponse> kept;
  std::int64_t kept_sampled = 0, kept_hits = 0;
  std::int64_t failed_requests = 0;
  std::vector<std::string> request_errors;

  auto waiter = [&](int w) {
    for (;;) {
      std::future<serve::InferenceResult> fut;
      std::int64_t k, req_span;
      Clock::time_point submitted;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return stop || slots[w].has_job; });
        if (!slots[w].has_job) return;
        fut = std::move(slots[w].fut);
        k = slots[w].k;
        req_span = slots[w].req_span;
        submitted = slots[w].submitted;
        slots[w].has_job = false;
      }
      std::string error;
      serve::InferenceResult res;
      try {
        res = fut.get();
      } catch (const std::exception& e) {
        error = e.what();
      }
      const Clock::time_point t = Clock::now();
      if (Tracer* rt = tracer_for(tr, k)) rt->record("request", req_span, -1, k, submitted, t);
      {
        std::lock_guard<std::mutex> lock(mu);
        if (!error.empty()) {
          ++failed_requests;
          request_errors.push_back("request " + std::to_string(k) + ": " + error);
        } else {
          const bool hit = res.stats.result_cache_hits > 0;
          const std::int32_t tile =
              in.schedule[static_cast<std::size_t>(k % kScheduleLen)];
          const bool sampled = mix(seed, static_cast<std::uint64_t>(k)) % 16 == 0;
          const bool keep_sampled = sampled && kept_sampled < 24;
          const bool keep_hit = hit && kept_hits < 8;
          if (keep_sampled || keep_hit) {
            ++(keep_sampled ? kept_sampled : kept_hits);
            kept.push_back({tile, hit, res.logits, res.masks.at(0)});
          }
          done.push_back({k, 1e3 * seconds_between(submitted, t), t, res.stats});
        }
        slots[w].busy = false;
      }
      cv.notify_all();
    }
  };

  std::vector<std::thread> waiters;
  // Stops and joins the waiters on every exit path, exceptions included.
  auto join_waiters = [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      stop = true;
    }
    cv.notify_all();
    for (std::thread& t : waiters)
      if (t.joinable()) t.join();
  };
  struct JoinGuard {
    std::function<void()> join;
    ~JoinGuard() { join(); }
  } join_guard{join_waiters};

  const SchedulerStats sched_before = scheduler_stats();
  for (int w = 0; w < kInFlight; ++w) waiters.emplace_back(waiter, w);

  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::int64_t submitted = 0;
  for (std::int64_t k = 0;; ++k) {
    int w = -1;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] {
        return std::any_of(slots.begin(), slots.end(),
                           [](const Slot& s) { return !s.busy; });
      });
      if (Clock::now() >= deadline) break;
      for (int i = 0; i < kInFlight; ++i)
        if (!slots[i].busy) {
          w = i;
          break;
        }
      slots[w].busy = true;
    }
    const img::Image& image =
        in.pool[static_cast<std::size_t>(
                    in.schedule[static_cast<std::size_t>(k % kScheduleLen)])]
            .image;
    Tracer* rt = tracer_for(tr, k);
    const std::int64_t req_span = rt ? rt->next_id() : -1;
    const Clock::time_point t_sub = Clock::now();
    std::future<serve::InferenceResult> fut;
    std::string error;
    try {
      Span s(rt, "server.submit", k, req_span);
      fut = server->submit(image);
    } catch (const std::exception& e) {
      error = e.what();
    }
    ++submitted;
    {
      std::lock_guard<std::mutex> lock(mu);
      if (!error.empty()) {
        ++failed_requests;
        request_errors.push_back("submit " + std::to_string(k) + ": " + error);
        slots[w].busy = false;
        continue;
      }
      slots[w].fut = std::move(fut);
      slots[w].k = k;
      slots[w].req_span = req_span;
      slots[w].submitted = t_sub;
      slots[w].has_job = true;
    }
    cv.notify_all();
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] {
      return std::none_of(slots.begin(), slots.end(),
                          [](const Slot& s) { return s.busy; });
    });
  }
  join_waiters();
  const SchedulerStats sched_after = scheduler_stats();
  const serve::InferenceStats window = server->stats_since_last();
  out.precision = window.precision;
  server->shutdown();
  server.reset();

  out.attempted += submitted;
  out.failed += failed_requests;
  for (std::string& e : request_errors) out.errors.push_back(std::move(e));

  // ---- end-to-end metrics.
  std::vector<double> latency;
  std::vector<std::int64_t> requests;
  Clock::time_point last = start;
  for (const Completion& c : done) {
    latency.push_back(c.latency_ms);
    requests.push_back(c.k);
    last = std::max(last, c.done);
  }
  out.latency_samples = latency.size();
  const double wall = seconds_between(start, last);
  const double images = static_cast<double>(done.size());
  out.metrics["throughput_img_s"] = wall > 0.0 ? images / wall : 0.0;
  out.metrics["latency_p50_ms"] = percentile(latency, 0.5);
  out.metrics["latency_p90_ms"] = percentile(latency, 0.9);

  // ---- per-layer metrics (requests that reached a worker).
  std::vector<double> patch_ms, queue_ms, forward_ms, batch;
  for (const Completion& c : done) {
    if (c.stats.result_cache_hits > 0) continue;
    patch_ms.push_back(1e3 * c.stats.patch_seconds);
    queue_ms.push_back(1e3 * c.stats.queue_seconds);
    forward_ms.push_back(1e3 * c.stats.forward_seconds);
    batch.push_back(static_cast<double>(c.stats.batch_size));
  }
  out.metrics["server.patch_ms_mean"] = mean(patch_ms);
  out.metrics["server.queue_ms_p50"] = percentile(queue_ms, 0.5);
  out.metrics["server.queue_ms_p90"] = percentile(queue_ms, 0.9);
  out.metrics["server.forward_ms_p50"] = percentile(forward_ms, 0.5);
  out.metrics["server.batch_size_mean"] = mean(batch);
  out.metrics["server.padding_ratio"] = window.padding_ratio();
  out.metrics["server.queue_depth_mean"] = window.avg_queue_depth();
  out.metrics["cache.result_hit_rate"] = window.result_cache_hit_rate();
  const std::int64_t patch_lookups =
      window.patch_cache_hits + window.patch_cache_misses;
  out.metrics["cache.patch_hit_rate"] =
      patch_lookups > 0
          ? static_cast<double>(window.patch_cache_hits) / patch_lookups
          : 0.0;
  out.metrics["cache.evictions"] = static_cast<double>(window.cache_evictions);
  out.metrics["cache.bytes"] = static_cast<double>(window.cache_bytes);
  record_scheduler(sched_before, sched_after, images, out);
  if (tr) {
    out.metrics["server.submit_ms_p50"] = median(tr->durations_ms("server.submit"));
    out.metrics["trace.overhead_pct"] = overhead_pct(requests, latency);
    trace_patcher_stages(in.pool, 64, scfg.engine.patcher, *tr, out);
  }

  // ---- output checks (untimed): server == serial, hit == cold.
  serve::InferenceEngine serial(*model, scfg.engine);
  for (const KeptResponse& r : kept) {
    ++out.attempted;
    const serve::InferenceResult ref =
        serial.run({in.pool[static_cast<std::size_t>(r.tile)].image});
    if (!same_bits(ref.logits, r.logits) || !same_pixels(ref.masks.at(0), r.mask))
      out.fail(std::string("serve-mixed: ") + (r.hit ? "cache hit" : "response") +
               " for tile " + std::to_string(r.tile) +
               " differs from the serial engine");
  }
  if (std::none_of(kept.begin(), kept.end(),
                   [](const KeptResponse& r) { return r.hit; }))
    out.fail("serve-mixed: no cache hit was checked");

  // dice: the (untrained) model's masks on the pool tiles — an output
  // fingerprint on the quality scale.
  DiceAccumulator dice;
  for (std::int64_t i = 0; i < kPoolTiles; ++i) {
    const data::SegSample& s = in.pool[static_cast<std::size_t>(i)];
    dice.add(serial.run({s.image}).masks.at(0), s.mask);
  }
  out.metrics["dice"] = dice.value();

  for (int rep = 0; rep < kSetupReps; ++rep) set_up();
  out.metrics["setup_s"] = median(setups);
  return out;
}

// ------------------------------------------------------------ batch-uniform

Outcome run_batch_uniform(const std::vector<data::SegSample>& tiles,
                          double seconds, Tracer* tr) {
  Outcome out;
  serve::EngineConfig ecfg;
  ecfg.patcher = adaptive_config(0);  // unused: the caller patches uniformly
  ecfg.max_batch = kCallTiles;
  const core::UniformPatcher uniform(kPatch);
  const std::int64_t groups = kUniformTiles / kCallTiles;

  std::unique_ptr<models::Unetr2d> model;
  std::unique_ptr<serve::InferenceEngine> engine;
  // One call of kCallTiles tiles: patch -> prepare -> forward -> decode.
  auto call = [&](std::int64_t c, std::vector<img::Image>* masks, Tracer* tr) {
    Span span(tr, "engine.call", c);
    std::vector<core::PatchSequence> seqs;
    {
      Span s(tr, "engine.patch", c, span.id());
      for (std::int64_t j = 0; j < kCallTiles; ++j)
        seqs.push_back(uniform.process(
            tiles[static_cast<std::size_t>((c % groups) * kCallTiles + j)].image));
    }
    core::TokenBatch batch;
    {
      Span s(tr, "engine.prepare", c, span.id());
      batch = serve::InferenceEngine::prepare(seqs);
    }
    Tensor logits;
    {
      Span s(tr, "engine.forward", c, span.id());
      logits = engine->forward(batch);
    }
    {
      Span s(tr, "engine.decode", c, span.id());
      std::vector<img::Image> m = engine->decode(logits);
      if (masks) *masks = std::move(m);
    }
    return logits;
  };

  // ---- set-up: model build, engine construction, warm-up calls.
  std::vector<double> setups;
  auto set_up = [&] {
    engine.reset();
    model.reset();
    const Clock::time_point t0 = Clock::now();
    model = build_model();
    engine = std::make_unique<serve::InferenceEngine>(*model, ecfg);
    for (int w = 0; w < kUniformWarmCalls; ++w) (void)call(w, nullptr, nullptr);
    setups.push_back(seconds_between(t0, Clock::now()));
  };
  for (int rep = 0; rep < kSetupReps; ++rep) set_up();
  out.precision = precision_name(engine->precision());

  const SchedulerStats sched_before = scheduler_stats();
  std::vector<double> latency;
  Tensor first_logits;
  DiceAccumulator dice;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  Clock::time_point t = start;
  std::int64_t calls = 0;
  std::vector<std::vector<img::Image>> first_masks(static_cast<std::size_t>(groups));
  std::vector<std::int64_t> call_ids;
  while (t < deadline) {
    std::vector<img::Image>* masks =
        calls < groups ? &first_masks[static_cast<std::size_t>(calls)] : nullptr;
    Tensor logits = call(calls, masks, tracer_for(tr, calls));
    const Clock::time_point t1 = Clock::now();
    latency.push_back(1e3 * seconds_between(t, t1));
    call_ids.push_back(calls);
    if (calls == 0) first_logits = std::move(logits);
    t = t1;
    ++calls;
  }
  const SchedulerStats sched_after = scheduler_stats();
  const double wall = seconds_between(start, t);
  const double images = static_cast<double>(calls * kCallTiles);
  out.attempted += calls;
  out.latency_samples = latency.size();

  out.metrics["throughput_img_s"] = images / wall;
  out.metrics["latency_p50_ms"] = percentile(latency, 0.5);
  out.metrics["latency_p90_ms"] = percentile(latency, 0.9);
  record_scheduler(sched_before, sched_after, images, out);
  if (tr) {
    out.metrics["trace.overhead_pct"] = overhead_pct(call_ids, latency);
    out.metrics["engine.patch_ms"] = median(tr->durations_ms("engine.patch"));
    out.metrics["engine.prepare_ms"] = median(tr->durations_ms("engine.prepare"));
    const std::vector<double> fwd = tr->durations_ms("engine.forward");
    out.metrics["engine.forward_ms"] = median(fwd);
    out.metrics["engine.decode_ms"] = median(tr->durations_ms("engine.decode"));
    const double fwd_s = std::accumulate(fwd.begin(), fwd.end(), 0.0) / 1e3;
    const double flops = engine->flops_for_tokens((kZ / kPatch) * (kZ / kPatch)) *
                         kCallTiles * static_cast<double>(fwd.size());
    out.metrics["engine.encoder_gflops_s"] = fwd_s > 0.0 ? flops / fwd_s / 1e9 : 0.0;
  }

  // ---- output checks (untimed): a repeated call returns identical logits.
  ++out.attempted;
  if (!same_bits(call(0, nullptr, nullptr), first_logits))
    out.fail("batch-uniform: a repeated call returned different logits");
  for (std::int64_t g = 0; g < groups; ++g) {
    std::vector<img::Image>& masks = first_masks[static_cast<std::size_t>(g)];
    if (masks.empty()) (void)call(g, &masks, nullptr);  // run shorter than one pass
    for (std::int64_t j = 0; j < kCallTiles; ++j)
      dice.add(masks[static_cast<std::size_t>(j)],
               tiles[static_cast<std::size_t>(g * kCallTiles + j)].mask);
  }
  out.metrics["dice"] = dice.value();

  for (int rep = 0; rep < kSetupReps; ++rep) set_up();
  out.metrics["setup_s"] = median(setups);
  return out;
}

// ------------------------------------------------------------ train-dp

struct TrainInputs {
  std::vector<data::SegSample> tiles;  // [0, kTrainTiles) train, then held out
  /// Per rank: the shard's sample indices in seed-chosen visiting order.
  std::vector<std::vector<std::int64_t>> order;
};

TrainInputs make_train_inputs(std::uint64_t seed) {
  TrainInputs in;
  in.tiles = make_tiles(seed, 0, kTrainTiles + kHeldOutTiles);
  Rng rng(seed ^ 0x7a1e7a1eULL);
  for (int r = 0; r < kRanks; ++r) {
    std::vector<std::int64_t> shard;
    for (std::int64_t i = r; i < kTrainTiles; i += kRanks) shard.push_back(i);
    for (std::size_t i = shard.size(); i > 1; --i)
      std::swap(shard[i - 1], shard[rng.next_u64() % i]);
    in.order.push_back(std::move(shard));
  }
  return in;
}

struct Replica {
  std::unique_ptr<models::Unetr2d> model;
  std::unique_ptr<train::BinaryTokenSegTask> task;
  std::unique_ptr<nn::AdamW> opt;
};

Outcome run_train_dp(const TrainInputs& in, double seconds, Tracer* tr) {
  Outcome out;
  const std::int64_t steps =
      std::max<std::int64_t>(1, std::llround(seconds * kTrainStepsPerSecond));
  const core::ApfConfig acfg = adaptive_config(kTrainSeqLen);
  const train::PatchFn patch_fn = [acfg](const img::Image& im) {
    return core::AdaptivePatcher(acfg).process(im);
  };
  const auto sampler = [&in](std::int64_t i) {
    return in.tiles[static_cast<std::size_t>(i)];
  };

  std::vector<double> setups, latency;
  std::vector<double> checksums(kRanks, 0.0);
  std::vector<std::int64_t> bad_losses(kRanks, 0);
  double wall = 0.0, dice = 0.0;
  std::int64_t param_count = 0, param_bytes = 0;
  SchedulerStats sched_before, sched_after;

  dist::run_parallel(kRanks, [&](dist::Comm& comm) {
    const int rank = comm.rank();
    const std::vector<std::int64_t>& shard = in.order[static_cast<std::size_t>(rank)];
    // ---- set-up: replica build, task construction, patching every sample
    // of the rank's shard once (the pre-processing the paper amortises),
    // optimizer construction.
    Replica rep;
    auto set_up = [&] {
      rep.opt.reset();
      rep.task.reset();
      rep.model.reset();
      comm.barrier();
      const Clock::time_point t0 = Clock::now();
      rep.model = build_model();
      rep.task = std::make_unique<train::BinaryTokenSegTask>(*rep.model, patch_fn,
                                                             sampler);
      for (std::int64_t i : shard) {
        Span s(tr, "task.setup_patch", i);
        (void)rep.task->sequence(i);
      }
      rep.opt = std::make_unique<nn::AdamW>(rep.model->parameters(), kLearningRate);
      comm.barrier();
      if (rank == 0) setups.push_back(seconds_between(t0, Clock::now()));
    };
    for (int r = 0; r < kSetupReps; ++r) set_up();
    const std::vector<Var> params = rep.model->parameters();
    Rng dropout(static_cast<std::uint64_t>(rank) + 1);

    comm.barrier();
    if (rank == 0) sched_before = scheduler_stats();
    const Clock::time_point start = Clock::now();
    for (std::int64_t step = 0; step < steps; ++step) {
      const Clock::time_point t0 = Clock::now();
      Tracer* st = tracer_for(tr, step);
      Span span(st, "train.step", step);
      std::vector<std::int64_t> batch;
      for (std::int64_t j = 0; j < kTilesPerRankStep; ++j)
        batch.push_back(shard[static_cast<std::size_t>(
            (step * kTilesPerRankStep + j) % static_cast<std::int64_t>(shard.size()))]);
      rep.opt->zero_grad();
      Var loss;
      {
        Span s(st, "task.loss", step, span.id());
        loss = rep.task->loss(batch, dropout);
      }
      {
        Span s(st, "autograd.backward", step, span.id());
        loss.backward();
      }
      {
        Span s(st, "dist.allreduce", step, span.id());
        train::allreduce_gradients(comm, params);
      }
      {
        Span s(st, "optim.step", step, span.id());
        rep.opt->step();
      }
      if (!std::isfinite(loss.val().data()[0])) ++bad_losses[static_cast<std::size_t>(rank)];
      if (rank == 0) latency.push_back(1e3 * seconds_between(t0, Clock::now()));
    }
    comm.barrier();
    if (rank == 0) {
      wall = seconds_between(start, Clock::now());
      sched_after = scheduler_stats();
    }

    // ---- output checks (untimed): replicas in sync; held-out dice.
    double checksum = 0.0;
    for (const Var& p : params)
      for (std::int64_t i = 0; i < p.numel(); ++i) checksum += p.val().data()[i];
    checksums[static_cast<std::size_t>(rank)] = checksum;
    if (rank == 0) {
      param_count = static_cast<std::int64_t>(params.size());
      for (const Var& p : params) param_bytes += p.numel() * 4;
      DiceAccumulator held_out;
      for (std::int64_t i = kTrainTiles; i < kTrainTiles + kHeldOutTiles; ++i)
        held_out.add(rep.task->predict_mask(i),
                     in.tiles[static_cast<std::size_t>(i)].mask);
      dice = held_out.value();
    }
    for (int r = 0; r < kSetupReps; ++r) set_up();
  });

  const double images = static_cast<double>(steps * kRanks * kTilesPerRankStep);
  out.attempted += steps * kRanks;
  out.precision = precision_name(active_precision());
  for (int r = 0; r < kRanks; ++r) {
    if (bad_losses[static_cast<std::size_t>(r)] > 0)
      out.fail("train-dp: rank " + std::to_string(r) + " had " +
               std::to_string(bad_losses[static_cast<std::size_t>(r)]) +
               " non-finite losses");
  }
  ++out.attempted;
  for (int r = 1; r < kRanks; ++r)
    if (checksums[static_cast<std::size_t>(r)] != checksums[0]) {
      out.fail("train-dp: replica parameter checksums diverged");
      break;
    }
  out.latency_samples = latency.size();

  out.metrics["setup_s"] = median(setups);
  out.metrics["throughput_img_s"] = images / wall;
  out.metrics["latency_p50_ms"] = percentile(latency, 0.5);
  out.metrics["latency_p90_ms"] = percentile(latency, 0.9);
  out.metrics["dice"] = dice;
  record_scheduler(sched_before, sched_after, images, out);
  // Computed, not measured: allreduce_gradients issues one allreduce_mean
  // per parameter tensor over its fp32 gradient.
  out.metrics["dist.calls_per_step"] = static_cast<double>(param_count);
  out.metrics["dist.bytes_per_step"] = static_cast<double>(param_bytes);
  if (tr) {
    std::vector<std::int64_t> step_ids(latency.size());
    std::iota(step_ids.begin(), step_ids.end(), 0);
    out.metrics["trace.overhead_pct"] = overhead_pct(step_ids, latency);
    out.metrics["task.loss_ms"] = median(tr->durations_ms("task.loss"));
    out.metrics["autograd.backward_ms"] = median(tr->durations_ms("autograd.backward"));
    out.metrics["optim.step_ms"] = median(tr->durations_ms("optim.step"));
    out.metrics["dist.allreduce_ms"] = median(tr->durations_ms("dist.allreduce"));
    out.metrics["task.setup_patch_ms_per_img"] =
        mean(tr->durations_ms("task.setup_patch"));
    trace_patcher_stages(in.tiles, kTrainTiles, acfg, *tr, out);
  }
  return out;
}

// ------------------------------------------------------------ host context

/// Cumulative (steal, total) jiffies from the first line of /proc/stat.
std::pair<double, double> cpu_jiffies() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  double v[8] = {};
  f >> cpu;
  for (double& x : v) f >> x;
  if (!f || cpu != "cpu") return {0.0, 0.0};
  double total = 0.0;
  for (double x : v) total += x;
  return {v[7], total};
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') o += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) {
      o += ' ';
      continue;
    }
    o += ch;
  }
  return o;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_out = "apfbench-trace.json";
};

bool parse_args(int argc, char** argv, Args& a) {
  bool seed_set = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      seed_set = end && *end == '\0' && !val.empty();
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (!end || *end != '\0') return false;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      a.trace = val == "1";
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && seed_set && a.seconds > 0.0 && a.trace >= 0 &&
         (a.workload == "serve-mixed" || a.workload == "batch-uniform" ||
          a.workload == "train-dp");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: apfbench --workload serve-mixed|batch-uniform|train-dp "
                 "--seed N --seconds S --trace 0|1 [--trace-out PATH]\n");
    return 2;
  }
  set_num_threads(kWidth);

  // ---- inputs, from the seed, before any clock.
  std::function<Outcome(Tracer*)> run;
  ServeInputs serve_in;
  std::vector<data::SegSample> uniform_in;
  TrainInputs train_in;
  if (args.workload == "serve-mixed") {
    serve_in = make_serve_inputs(args.seed);
    run = [&](Tracer* tr) {
      return run_serve_mixed(serve_in, args.seed, args.seconds, tr);
    };
  } else if (args.workload == "batch-uniform") {
    uniform_in = make_tiles(args.seed, 0, kUniformTiles);
    run = [&](Tracer* tr) { return run_batch_uniform(uniform_in, args.seconds, tr); };
  } else {
    train_in = make_train_inputs(args.seed);
    run = [&](Tracer* tr) { return run_train_dp(train_in, args.seconds, tr); };
  }
  // mem.peak_rss_mb counts what the program adds on top of its inputs.
  const double inputs_rss_mb = proc_status_mb("VmRSS");

  const std::pair<double, double> jiffies0 = cpu_jiffies();
  Outcome result;
  try {
    if (args.trace) {
      Tracer tracer;
      result = run(&tracer);
      if (!tracer.write_chrome(args.trace_out))
        result.fail("cannot write trace file " + args.trace_out);
    } else {
      result = run(nullptr);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "apfbench: %s: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  result.metrics["mem.peak_rss_mb"] = proc_status_mb("VmHWM") - inputs_rss_mb;
  const std::pair<double, double> jiffies1 = cpu_jiffies();
  const double d_total = jiffies1.second - jiffies0.second;
  const double steal =
      d_total > 0.0 ? (jiffies1.first - jiffies0.first) / d_total : 0.0;

  for (const std::string& e : result.errors)
    std::fprintf(stderr, "apfbench: FAILED: %s\n", e.c_str());
  if (result.latency_samples < 100)
    std::fprintf(stderr,
                 "apfbench: warning: %zu latency samples; latency_p90_ms needs "
                 "100 to have 10 beyond it\n",
                 result.latency_samples);

#ifdef APF_ARENA_POISON
  const bool poison = true;
#else
  const bool poison = false;
#endif
  std::ostringstream ctx;
  ctx << "{\"context\": {\"workload\": \"" << args.workload
      << "\", \"seed\": " << args.seed << ", \"seconds\": " << number(args.seconds)
      << ", \"trace\": " << args.trace
      << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"width\": " << num_threads() << ", \"gemm_backend\": \""
      << json_escape(active_gemm_backend().name()) << "\", \"precision\": \""
      << json_escape(result.precision) << "\", \"arena_poison\": "
      << (poison ? "true" : "false") << ", \"steal_share\": " << number(steal)
      << ", \"ops\": {\"attempted\": " << result.attempted
      << ", \"succeeded\": " << result.attempted - result.failed
      << ", \"failed\": " << result.failed << "}"
      << ", \"latency_samples\": " << result.latency_samples
      << ", \"inputs_rss_mb\": " << number(inputs_rss_mb)
      << (args.trace ? ", \"trace_file\": \"" + json_escape(args.trace_out) + "\""
                     : std::string())
      << "}}";
  std::printf("%s\n", ctx.str().c_str());

  std::ostringstream line;
  line << "{\"correct\": " << (result.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << result.attempted
       << ", \"failed\": " << result.failed << ", \"measured\": {";
  for (auto it = result.metrics.begin(); it != result.metrics.end(); ++it) {
    if (!std::isfinite(it->second)) {
      std::fprintf(stderr, "apfbench: %s is not finite\n", it->first.c_str());
      return 1;
    }
    line << (it == result.metrics.begin() ? "" : ", ") << "\"" << it->first
         << "\": " << number(it->second);
  }
  line << "}}";
  std::printf("%s\n", line.str().c_str());
  return result.failed == 0 ? 0 : 1;
}
