#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "tensor/gemm_backend.h"
#include "core/thread_pool.h"

namespace apf::serve {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

Server::Server(models::TokenSegModel& model, ServerConfig cfg)
    : model_(model),
      cfg_(cfg),
      queue_(cfg.max_queue, cfg.bucket_granularity),
      started_(Clock::now()) {
  APF_CHECK(cfg_.num_workers > 0,
            "ServerConfig: num_workers must be positive, got "
                << cfg_.num_workers);
  APF_CHECK(cfg_.batch_deadline_ms >= 0.0,
            "ServerConfig: batch_deadline_ms must be >= 0, got "
                << cfg_.batch_deadline_ms);
  APF_CHECK(cfg_.adaptive_max_batch == 0 ||
                cfg_.adaptive_max_batch >= cfg_.engine.max_batch,
            "ServerConfig: adaptive_max_batch must be 0 (off) or >= "
            "engine.max_batch ("
                << cfg_.engine.max_batch << "), got "
                << cfg_.adaptive_max_batch);
  APF_CHECK(cfg_.adaptive_min_deadline_ms >= 0.0 &&
                cfg_.adaptive_min_deadline_ms <= cfg_.batch_deadline_ms,
            "ServerConfig: adaptive_min_deadline_ms must be in [0, "
            "batch_deadline_ms = "
                << cfg_.batch_deadline_ms << "], got "
                << cfg_.adaptive_min_deadline_ms);
  APF_CHECK(cfg_.cache.capacity_bytes >= 0,
            "ServerConfig: cache.capacity_bytes must be >= 0, got "
                << cfg_.cache.capacity_bytes);
  // max_queue / bucket_granularity are validated by the RequestQueue; the
  // EngineConfig by the engines below; the rest of the CacheConfig by the
  // InferenceCache constructor.
  engines_.reserve(static_cast<std::size_t>(cfg_.num_workers));
  for (int i = 0; i < cfg_.num_workers; ++i)
    engines_.push_back(std::make_unique<InferenceEngine>(model_, cfg_.engine));
  patch_engine_ = std::make_unique<InferenceEngine>(model_, cfg_.engine);

  if (cfg_.cache.enabled()) {
    cache_ = std::make_shared<InferenceCache>(cfg_.cache);
    // One fingerprint computation (it hashes every model parameter) shared
    // across all engine views — they serve the same model and config.
    const EngineFingerprint fp = compute_engine_fingerprint(
        model_, cfg_.engine.patcher, cfg_.engine.mask_threshold,
        cfg_.cache.seed);
    for (const auto& engine : engines_) engine->set_cache(cache_, fp);
    patch_engine_->set_cache(cache_, fp);
  }

  // Park the shared model in eval mode for the server's lifetime: workers
  // then only READ module state, so concurrent forwards are race-free.
  model_was_training_ = model_.training();
  model_.set_training(false);

  // Scope the scheduler counters reported by stats() to this server's
  // lifetime. The first stats_since_last() window also starts here.
  sched_at_start_ = scheduler_stats();
  window_started_ = started_;

  workers_.reserve(engines_.size());
  for (std::size_t i = 0; i < engines_.size(); ++i)
    workers_.emplace_back([this, i] { worker_main(i); });
}

Server::~Server() { shutdown(); }

void Server::shutdown() {
  MutexLock lock(shutdown_mu_);
  if (shut_down_) return;
  queue_.close();  // no new submits; workers drain what was accepted
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  model_.set_training(model_was_training_);
  shut_down_ = true;
}

std::future<InferenceResult> Server::submit(const img::Image& image) {
  // Validate once at the API boundary, failing fast with the offending
  // shape; everything after it works on a known-good image.
  const auto t0 = Clock::now();
  patch_engine_->validate_image(image);
  return submit_validated(image, t0);
}

std::future<InferenceResult> Server::submit_validated(
    const img::Image& image, Clock::time_point t0) {
  // Stage 1 on the calling thread: patching in parallel across clients
  // keeps the workers fed with bucketable sequences.
  std::optional<core::Digest128> image_key;
  if (cache_) {
    image_key = patch_engine_->cache_image_key(image);
    if (std::optional<CachedResult> hit =
            patch_engine_->cached_result(*image_key)) {
      // Exact duplicate: serve it right here — no queue, no worker, no
      // forward. The cache handed out a deep copy, so the client owns its
      // logits; the bits are identical to a cold request by the result-
      // tier contract. Shutdown still rejects new work on this path.
      APF_CHECK(!queue_.closed(), "Server::submit: server is shut down");
      InferenceResult out;
      out.logits = hit->logits;
      out.masks.push_back(std::move(hit->mask));
      InferenceStats& s = out.stats;
      s.images = 1;
      s.tokens = hit->valid_tokens;
      s.result_cache_hits = 1;
      s.gemm_backend = active_gemm_backend().name();
      s.precision = precision_name(patch_engine_->precision());
      s.total_seconds = seconds_since(t0);
      // Fold into the aggregate BEFORE the future resolves (same ordering
      // contract as process_batch). Cache counters live in the cache.
      {
        MutexLock lock(stats_mu_);
        aggregate_.images += 1;
        aggregate_.tokens += hit->valid_tokens;
      }
      std::promise<InferenceResult> promise;
      std::future<InferenceResult> future = promise.get_future();
      promise.set_value(std::move(out));
      return future;
    }
  }
  Request r;
  r.image_key = image_key;
  r.seq = patch_engine_->patch(
      image, image_key ? &*image_key : nullptr, &r.patch_cache_hit);
  r.patch_seconds = seconds_since(t0);
  r.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  r.queue_depth = queue_.pending();  // depth at admission (observability)
  r.enqueued = Clock::now();
  std::future<InferenceResult> future = r.promise.get_future();
  APF_CHECK(queue_.push(std::move(r)),
            "Server::submit: server is shut down");
  return future;
}

std::vector<std::future<InferenceResult>> Server::submit_many(
    const std::vector<img::Image>& images) {
  APF_CHECK(!images.empty(), "Server::submit_many: empty image batch");
  // Validate everything up front so a bad image rejects the whole call
  // before ANY request is enqueued (no partial batches on error).
  for (std::size_t i = 0; i < images.size(); ++i)
    patch_engine_->validate_image(images[i], static_cast<std::int64_t>(i));
  std::vector<std::future<InferenceResult>> futures;
  futures.reserve(images.size());
  for (const img::Image& im : images)
    futures.push_back(submit_validated(im, Clock::now()));
  return futures;
}

void Server::worker_main(std::size_t worker_index) {
  InferenceEngine& engine = *engines_[worker_index];
  const auto deadline =
      std::chrono::duration<double>(cfg_.batch_deadline_ms / 1e3);
  const auto min_deadline =
      std::chrono::duration<double>(cfg_.adaptive_min_deadline_ms / 1e3);
  for (;;) {
    // Wait for poppable work WITHOUT claiming it: requests are only
    // popped inside the task below, once this worker actually holds an
    // execution permit. A worker parked behind a busy peer therefore
    // never sits on a claimed batch (which would force a cache-cold
    // worker handoff the moment it finally ran).
    if (!queue_.wait_ready(cfg_.engine.max_batch, deadline,
                           cfg_.adaptive_max_batch, min_deadline))
      return;  // closed and drained
    // The forward work is an inter-op task on the shared work-stealing
    // scheduler: it may run right here (wait() participates) or on a pool
    // thread that stole it, and the gemm panels it spawns are intra-op
    // tasks on the SAME pool — so capacity follows load instead of the
    // static per-worker ThreadLimitGuard split this replaced. The task
    // runs to completion: while it holds its execution permit it keeps
    // draining whatever the queue can hand over without waiting, so on a
    // host narrower than the worker count, consecutive batches stay on
    // one cache-hot thread (and its warm thread-local arena) instead of
    // ping-ponging between workers. The pop may also come back empty —
    // another worker won the race — which just ends the task.
    // Correctness is thread-independent: engine.forward() installs its
    // own NoGradGuard and ArenaScope, and process_batch() fulfills
    // promises itself (it never throws).
    TaskGroup group;
    group.submit(
        1,
        [&](std::int64_t) {
          for (;;) {
            std::vector<Request> batch = queue_.try_pop_batch(
                cfg_.engine.max_batch, deadline, cfg_.adaptive_max_batch,
                min_deadline);
            if (batch.empty()) return;
            process_batch(engine, std::move(batch));
          }
        },
        TaskKind::kForward);
    group.wait();
  }
}

void Server::process_batch(InferenceEngine& engine,
                           std::vector<Request>&& batch) {
  const auto t0 = Clock::now();
  const std::int64_t n = static_cast<std::int64_t>(batch.size());
  try {
    std::vector<core::PatchSequence> seqs;
    seqs.reserve(batch.size());
    for (Request& r : batch) seqs.push_back(std::move(r.seq));

    // Pad only to this batch's own longest member — the bucket guarantees
    // peers are within one granularity step, so padding stays small.
    core::TokenBatch tb = InferenceEngine::prepare(seqs);
    Tensor logits = engine.forward(tb);  // [n, C, Z, Z]
    const double forward_seconds = seconds_since(t0);
    std::vector<img::Image> masks = engine.decode(logits);

    const std::int64_t per_image = logits.numel() / n;
    const std::string backend = active_gemm_backend().name();
    const std::string precision = precision_name(engine.precision());
    InferenceStats delta;  // accumulated into the aggregate below
    delta.images = n;
    delta.batches = 1;
    delta.forward_seconds = forward_seconds;

    std::vector<InferenceResult> results(batch.size());
    for (std::int64_t i = 0; i < n; ++i) {
      const Request& r = batch[static_cast<std::size_t>(i)];
      InferenceResult& out = results[static_cast<std::size_t>(i)];
      out.logits =
          Tensor({1, logits.size(1), logits.size(2), logits.size(3)});
      std::copy(logits.data() + i * per_image,
                logits.data() + (i + 1) * per_image, out.logits.data());
      out.masks.push_back(std::move(masks[static_cast<std::size_t>(i)]));

      const std::int64_t valid =
          seqs[static_cast<std::size_t>(i)].num_valid();
      InferenceStats& s = out.stats;
      s.images = 1;
      s.batches = 1;
      s.batch_size = n;
      s.tokens = valid;
      s.padded_tokens = tb.length() - valid;
      s.patch_seconds = r.patch_seconds;
      s.queue_depth = r.queue_depth;
      s.queue_seconds =
          std::chrono::duration<double>(t0 - r.enqueued).count();
      s.forward_seconds = forward_seconds;
      s.total_seconds = s.patch_seconds + s.queue_seconds +
                        seconds_since(t0);
      s.gemm_backend = backend;
      s.precision = precision;
      s.model_flops = engine.flops_for_tokens(valid);
      if (cache_) {
        // Per-request cache accounting: a request reaching a worker
        // missed the result tier by definition; the patch-tier outcome
        // rode in on the Request. (Aggregate counters come from the
        // shared cache itself — see snapshot().)
        s.patch_cache_hits = r.patch_cache_hit ? 1 : 0;
        s.patch_cache_misses =
            cache_->patch_tier_enabled() && !r.patch_cache_hit ? 1 : 0;
        s.result_cache_misses = cache_->result_tier_enabled() ? 1 : 0;
      }
      if (r.image_key) {
        // Populate the result tier so the next identical submission is
        // served from submit() directly (put_result deep-copies).
        CachedResult value;
        value.logits = out.logits;
        value.mask = out.masks[0];
        value.valid_tokens = valid;
        value.model_flops = s.model_flops;
        engine.store_result(*r.image_key, value);
      }

      delta.tokens += s.tokens;
      delta.padded_tokens += s.padded_tokens;
      delta.patch_seconds += s.patch_seconds;
      delta.queue_seconds += s.queue_seconds;
      delta.queue_depth += s.queue_depth;
      delta.model_flops += s.model_flops;
    }

    // Fold into the aggregate BEFORE fulfilling the promises, so a client
    // that has seen all its futures resolve also sees them in stats().
    {
      MutexLock lock(stats_mu_);
      aggregate_.images += delta.images;
      aggregate_.batches += delta.batches;
      aggregate_.tokens += delta.tokens;
      aggregate_.padded_tokens += delta.padded_tokens;
      aggregate_.patch_seconds += delta.patch_seconds;
      aggregate_.queue_seconds += delta.queue_seconds;
      aggregate_.forward_seconds += delta.forward_seconds;
      aggregate_.queue_depth += delta.queue_depth;
      aggregate_.model_flops += delta.model_flops;
      aggregate_.gemm_backend = backend;
      aggregate_.precision = precision;
      ++aggregate_.batch_size_counts[n];  // effective batch distribution
    }
    for (std::int64_t i = 0; i < n; ++i)
      batch[static_cast<std::size_t>(i)].promise.set_value(
          std::move(results[static_cast<std::size_t>(i)]));
  } catch (...) {
    // A failed batch fails its own requests; the worker and every other
    // request keep going. Requests already fulfilled before the failure
    // keep their results (set_exception on them would throw).
    const std::exception_ptr err = std::current_exception();
    for (Request& r : batch) {
      try {
        r.promise.set_exception(err);
      } catch (const std::future_error&) {
      }
    }
  }
}

InferenceStats Server::snapshot() const {
  // Gather external counters BEFORE taking stats_mu_: the cache locks
  // its shard mutexes, and keeping those acquisitions outside the
  // stats_mu_ critical section keeps the lock-order graph edge-free.
  const CacheStats cache_now = cache_ ? cache_->stats() : CacheStats{};
  const SchedulerStats now = scheduler_stats();
  MutexLock lock(stats_mu_);
  InferenceStats out = aggregate_;
  out.total_seconds = seconds_since(started_);
  // Scheduler activity since construction (process-wide counters diffed
  // against the construction snapshot — see InferenceStats docs).
  out.scheduler_steals = now.steals - sched_at_start_.steals;
  out.forward_tasks = now.forward_tasks - sched_at_start_.forward_tasks;
  out.panel_tasks = now.panel_tasks - sched_at_start_.panel_tasks;
  // Cache totals come from the shared cache itself: the per-shard
  // counters are the ground truth for hits/misses/evictions, and bytes/
  // entries are its current footprint.
  out.patch_cache_hits = cache_now.patch.hits;
  out.patch_cache_misses = cache_now.patch.misses;
  out.result_cache_hits = cache_now.result.hits;
  out.result_cache_misses = cache_now.result.misses;
  out.cache_evictions = cache_now.total_evictions();
  out.cache_bytes = cache_now.total_bytes();
  return out;
}

InferenceStats Server::stats() const { return snapshot(); }

InferenceStats Server::stats_since_last() {
  InferenceStats cur = snapshot();
  MutexLock lock(stats_mu_);
  InferenceStats out = cur;
  const InferenceStats& base = window_base_;
  // Monotonic counters and summed seconds report the per-window delta;
  // gauges (cache_bytes, gemm_backend, batch_size) stay current.
  out.images -= base.images;
  out.batches -= base.batches;
  out.tokens -= base.tokens;
  out.padded_tokens -= base.padded_tokens;
  out.queue_depth -= base.queue_depth;
  out.scheduler_steals -= base.scheduler_steals;
  out.forward_tasks -= base.forward_tasks;
  out.panel_tasks -= base.panel_tasks;
  out.patch_cache_hits -= base.patch_cache_hits;
  out.patch_cache_misses -= base.patch_cache_misses;
  out.result_cache_hits -= base.result_cache_hits;
  out.result_cache_misses -= base.result_cache_misses;
  out.cache_evictions -= base.cache_evictions;
  out.patch_seconds -= base.patch_seconds;
  out.queue_seconds -= base.queue_seconds;
  out.forward_seconds -= base.forward_seconds;
  out.model_flops -= base.model_flops;
  for (const auto& [size, count] : base.batch_size_counts) {
    if ((out.batch_size_counts[size] -= count) == 0)
      out.batch_size_counts.erase(size);
  }
  out.total_seconds = seconds_since(window_started_);
  window_base_ = std::move(cur);
  window_started_ = Clock::now();
  return out;
}

}  // namespace apf::serve
