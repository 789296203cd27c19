#include "serve/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>

#include "tensor/arena.h"
#include "tensor/gemm_backend.h"

namespace apf::serve {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// RAII eval-mode guard (mirrors the trainer's EvalGuard).
class EvalGuard {
 public:
  explicit EvalGuard(nn::Module& m) : m_(m), was_(m.training()) {
    m_.set_training(false);
  }
  ~EvalGuard() { m_.set_training(was_); }

 private:
  nn::Module& m_;
  bool was_;
};

}  // namespace

InferenceEngine::InferenceEngine(models::TokenSegModel& model,
                                 EngineConfig cfg)
    : model_(model), cfg_(cfg), patcher_(cfg.patcher), rng_(0x5eed) {
  APF_CHECK(cfg_.max_batch > 0,
            "EngineConfig: max_batch must be positive, got "
                << cfg_.max_batch);
  // The comparison form also rejects NaN. 0 and 1 are legal degenerate
  // thresholds (everything / nothing foreground): the logit-space cutoff
  // becomes -inf / +inf and the comparisons below stay well defined.
  APF_CHECK(cfg_.mask_threshold >= 0.f && cfg_.mask_threshold <= 1.f,
            "EngineConfig: mask_threshold must be in [0, 1], got "
                << cfg_.mask_threshold);
  APF_CHECK(cfg_.patcher.seq_len >= 0,
            "EngineConfig: patcher seq_len must be >= 0 (0 = variable "
            "length), got "
                << cfg_.patcher.seq_len);
}

void InferenceEngine::validate_image(const img::Image& image,
                                     std::int64_t index) const {
  const auto where = [index]() -> std::string {
    return index >= 0 ? "image " + std::to_string(index) : "image";
  };
  APF_CHECK(image.h > 0 && image.w > 0 && image.c > 0,
            "InferenceEngine: " << where() << " is empty (" << image.h << "x"
                                << image.w << "x" << image.c << ")");
  APF_CHECK(image.h == image.w,
            "InferenceEngine: " << where() << " is " << image.h << "x"
                                << image.w << "x" << image.c
                                << " but the model needs square inputs");
  const std::int64_t expected = model_.expected_image_size();
  APF_CHECK(expected <= 0 || image.h == expected,
            "InferenceEngine: " << where() << " is " << image.h << "x"
                                << image.w << "x" << image.c
                                << " but the model was built for " << expected
                                << "x" << expected);
  // A NaN compares false against every split threshold, so one NaN pixel
  // would collapse the quadtree to a single token and carry the NaN into
  // the model without any error. Inf and NaN are the floats whose exponent
  // bits are all ones; this integer OR-reduction vectorizes, and the slow
  // search for the index runs only on failure.
  std::uint32_t nonfinite = 0;
  for (const float v : image.data) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    nonfinite |= static_cast<std::uint32_t>((bits & 0x7f800000u) == 0x7f800000u);
  }
  if (nonfinite != 0) {
    const auto bad = std::find_if_not(image.data.begin(), image.data.end(),
                                      [](float v) { return std::isfinite(v); });
    const std::int64_t at = bad - image.data.begin();
    APF_CHECK(false, "InferenceEngine: "
                         << where() << " has non-finite pixel " << *bad
                         << " at index " << at << " (row "
                         << at / image.c / image.w << ", col "
                         << at / image.c % image.w << ", channel "
                         << at % image.c << ")");
  }
  // The model's token dimension pins the channel count when it divides
  // cleanly by the patch area (token_dim = C * Pm * Pm).
  const std::int64_t token_dim = model_.encoder_spec().token_dim;
  const std::int64_t area = cfg_.patcher.patch_size * cfg_.patcher.patch_size;
  if (token_dim > 0 && area > 0 && token_dim % area == 0) {
    const std::int64_t expected_c = token_dim / area;
    APF_CHECK(image.c == expected_c,
              "InferenceEngine: " << where() << " has " << image.c
                                  << " channel(s) but the model's token dim "
                                  << token_dim << " with patch size "
                                  << cfg_.patcher.patch_size << " needs "
                                  << expected_c);
  }
}

core::PatchSequence InferenceEngine::patch(const img::Image& image) const {
  validate_image(image);
  return patch(image, /*image_key=*/nullptr, /*cache_hit=*/nullptr);
}

core::PatchSequence InferenceEngine::patch(const img::Image& image,
                                           const core::Digest128* image_key,
                                           bool* cache_hit) const {
  if (cache_hit) *cache_hit = false;
  if (cache_ && cache_->patch_tier_enabled()) {
    const core::Digest128 ikey =
        image_key ? *image_key : cache_->image_key(image);
    const core::Digest128 pkey =
        core::combine(ikey, fingerprint_.patch, cache_->config().seed);
    if (std::optional<core::PatchSequence> hit = cache_->get_patch(pkey)) {
      if (cache_hit) *cache_hit = true;
      return std::move(*hit);
    }
    core::PatchSequence seq =
        patcher_.process_unpadded(image, /*rng=*/nullptr);
    cache_->put_patch(pkey, seq);
    return seq;
  }
  // nullptr rng forces the deterministic coarsest-first drop so serving
  // results are reproducible regardless of arrival order.
  return patcher_.process_unpadded(image, /*rng=*/nullptr);
}

void InferenceEngine::set_cache(std::shared_ptr<InferenceCache> cache) {
  if (cache) {
    const EngineFingerprint fp = compute_engine_fingerprint(
        model_, cfg_.patcher, cfg_.mask_threshold, cache->config().seed);
    set_cache(std::move(cache), fp);
  } else {
    set_cache(nullptr, EngineFingerprint{});
  }
}

void InferenceEngine::set_cache(std::shared_ptr<InferenceCache> cache,
                                const EngineFingerprint& fp) {
  cache_ = std::move(cache);
  fingerprint_ = fp;
}

std::optional<core::Digest128> InferenceEngine::cache_image_key(
    const img::Image& image) const {
  if (!cache_) return std::nullopt;
  return cache_->image_key(image);
}

core::Digest128 InferenceEngine::result_key(
    const core::Digest128& image_key) const {
  core::Hasher h(cache_->config().seed);
  h.update_digest(fingerprint_.result);
  h.update_digest(image_key);
  // Backend bitwise class: reference and avx2 certify bitwise_exact()
  // and are bitwise-identical to each other, so they share entries under
  // one label; the tolerance-grade fma backend keys by name so its
  // numerically different logits never serve a bitwise-exact request.
  const GemmBackend& backend = active_gemm_backend();
  if (backend.bitwise_exact()) {
    h.update_str("bitwise-exact");
  } else {
    h.update_str(backend.name());
  }
  return h.digest();
}

std::optional<CachedResult> InferenceEngine::cached_result(
    const core::Digest128& image_key) const {
  if (!cache_ || !cache_->result_tier_enabled()) return std::nullopt;
  return cache_->get_result(result_key(image_key));
}

void InferenceEngine::store_result(const core::Digest128& image_key,
                                   const CachedResult& value) const {
  if (!cache_ || !cache_->result_tier_enabled()) return;
  cache_->put_result(result_key(image_key), value);
}

core::TokenBatch InferenceEngine::prepare(
    const std::vector<core::PatchSequence>& seqs, std::int64_t target_len) {
  APF_CHECK(!seqs.empty(), "InferenceEngine::prepare: empty batch");
  std::int64_t max_len = 0;
  for (const core::PatchSequence& s : seqs) {
    APF_CHECK(s.image_size == seqs[0].image_size,
              "InferenceEngine::prepare: mixed source image sizes in batch ("
                  << s.image_size << " vs " << seqs[0].image_size << ")");
    max_len = std::max(max_len, s.length());
  }
  if (target_len == 0) target_len = max_len;
  APF_CHECK(target_len >= max_len,
            "InferenceEngine::prepare: target length "
                << target_len << " would drop tokens (longest sequence is "
                << max_len << "); dropping belongs to the patch stage");
  // Pad only the short sequences; already-long ones are stacked in place
  // through the pointer form of make_batch (no copies on the hot path).
  std::vector<core::PatchSequence> padded;
  padded.reserve(seqs.size());
  std::vector<const core::PatchSequence*> ptrs;
  ptrs.reserve(seqs.size());
  for (const core::PatchSequence& s : seqs) {
    if (s.length() == target_len) {
      ptrs.push_back(&s);
    } else {
      padded.push_back(core::fit_to_length(
          s, target_len, /*drop_coarsest_first=*/true, nullptr));
      ptrs.push_back(&padded.back());
    }
  }
  return core::make_batch(ptrs);
}

Tensor InferenceEngine::forward(const core::TokenBatch& batch) {
  APF_CHECK(batch.batch() > 0, "InferenceEngine::forward: empty batch");
  // Only toggle train/eval when needed: serve::Server parks the shared
  // model in eval mode before its workers start, so concurrent forwards
  // never write Module state.
  std::optional<EvalGuard> eval;
  if (model_.training()) eval.emplace(model_);
  NoGradGuard no_grad;
  // Grad-free activations for this batch live in the thread-local bump
  // arena: hundreds of intermediates become pointer bumps, reclaimed in
  // one cursor reset when the scope closes. The logits escape the scope,
  // so they are deep-copied to heap ownership first (arena.h escape rule)
  // — the pause guard routes that clone back to the heap.
  ArenaScope arena;
  Var logits = model_.forward(batch, rng_);  // [B, C, Z, Z]
  APF_CHECK(logits.val().ndim() == 4 && logits.size(0) == batch.batch(),
            "InferenceEngine: model returned " << logits.val().str()
                                               << " for a batch of "
                                               << batch.batch());
  ArenaPauseGuard heap;
  return logits.val().clone();
}

std::vector<img::Image> InferenceEngine::decode(const Tensor& logits) const {
  APF_CHECK(logits.defined() && logits.ndim() == 4,
            "InferenceEngine::decode: need [B, C, Z, Z] logits");
  const std::int64_t bsz = logits.size(0), chans = logits.size(1);
  const std::int64_t zh = logits.size(2), zw = logits.size(3);
  // The sigmoid cutoff is applied in logit space:
  // P(fg) > t  <=>  logit > log(t / (1 - t)).
  const float logit_cut =
      std::log(cfg_.mask_threshold / (1.f - cfg_.mask_threshold));
  std::vector<img::Image> masks;
  masks.reserve(static_cast<std::size_t>(bsz));
  const float* pl = logits.data();
  for (std::int64_t i = 0; i < bsz; ++i) {
    img::Image mask(zh, zw, 1);
    const float* item = pl + i * chans * zh * zw;
    for (std::int64_t px = 0; px < zh * zw; ++px) {
      if (chans == 1) {
        mask.data[static_cast<std::size_t>(px)] =
            item[px] > logit_cut ? 1.f : 0.f;
      } else {
        std::int64_t best = 0;
        for (std::int64_t ch = 1; ch < chans; ++ch)
          if (item[ch * zh * zw + px] > item[best * zh * zw + px]) best = ch;
        mask.data[static_cast<std::size_t>(px)] = static_cast<float>(best);
      }
    }
    masks.push_back(std::move(mask));
  }
  return masks;
}

double InferenceEngine::flops_for_tokens(std::int64_t valid_tokens) const {
  if (valid_tokens <= 0) return 0.0;
  dist::VitSpec spec = model_.encoder_spec();
  if (spec.d_model <= 0) return 0.0;
  spec.seq_len = valid_tokens;
  return dist::vit_flops_per_image(spec);
}

InferenceResult InferenceEngine::run(const std::vector<img::Image>& images) {
  APF_CHECK(!images.empty(), "InferenceEngine::run: empty image batch");
  const auto t_start = Clock::now();
  const std::int64_t n = static_cast<std::int64_t>(images.size());
  InferenceResult out;
  out.stats.images = n;

  // Validate geometry (with indices) and batch homogeneity up front.
  for (std::size_t i = 0; i < images.size(); ++i) {
    validate_image(images[i], static_cast<std::int64_t>(i));
    APF_CHECK(images[i].h == images[0].h && images[i].c == images[0].c,
              "InferenceEngine::run: image " << i << " is " << images[i].h
                                             << "x" << images[i].w << "x"
                                             << images[i].c
                                             << " but the batch started with "
                                             << images[0].h << "x"
                                             << images[0].w << "x"
                                             << images[0].c);
  }

  // Stage 0: content-addressed result reuse. Safe bitwise because the
  // forward computes each image from its own valid tokens only (padded-
  // length independence), so a previously computed image carries the
  // exact bits a recompute would produce, whatever batch either rode in.
  std::vector<std::optional<core::Digest128>> keys(images.size());
  std::vector<std::optional<CachedResult>> cached(images.size());
  if (cache_) {
    for (std::size_t i = 0; i < images.size(); ++i) {
      keys[i] = cache_->image_key(images[i]);
      if (!cache_->result_tier_enabled()) continue;
      cached[i] = cached_result(*keys[i]);
      if (cached[i]) {
        out.stats.result_cache_hits += 1;
        out.stats.tokens += cached[i]->valid_tokens;
      } else {
        out.stats.result_cache_misses += 1;
      }
    }
  }

  // Stage 1: patch the misses (patch-tier reuse inside patch()).
  std::vector<core::PatchSequence> seqs;  // parallel to miss_idx
  std::vector<std::int64_t> miss_idx;
  std::int64_t max_len = 0;
  for (std::size_t i = 0; i < images.size(); ++i) {
    if (cached[i]) continue;
    bool patch_hit = false;
    seqs.push_back(patch(images[i], keys[i] ? &*keys[i] : nullptr,
                         &patch_hit));
    if (cache_ && cache_->patch_tier_enabled()) {
      (patch_hit ? out.stats.patch_cache_hits : out.stats.patch_cache_misses)
          += 1;
    }
    miss_idx.push_back(static_cast<std::int64_t>(i));
    max_len = std::max(max_len, seqs.back().length());
    out.stats.tokens += seqs.back().num_valid();
  }
  // The serial baseline squares everything in first-come order: to the
  // configured budget when seq_len > 0, else to the longest sequence.
  // Misses only — the target never changes any image's bits (padded-
  // length independence), only the padding accounting.
  const std::int64_t target = std::max(cfg_.patcher.seq_len, max_len);
  out.stats.padded_tokens = 0;
  for (const core::PatchSequence& s : seqs)
    out.stats.padded_tokens += target - s.num_valid();
  out.stats.patch_seconds = seconds_since(t_start);

  // Splice cached logits into their original slots.
  for (std::size_t i = 0; i < images.size(); ++i) {
    if (!cached[i]) continue;
    const Tensor& hit = cached[i]->logits;  // [1, C, Z, Z]
    if (!out.logits.defined()) {
      out.logits = Tensor({n, hit.size(1), hit.size(2), hit.size(3)});
    }
    std::copy(hit.data(), hit.data() + hit.numel(),
              out.logits.data() + static_cast<std::int64_t>(i) * hit.numel());
  }

  // Stage 2: chunked grad-free forward over the misses.
  const auto t_fwd = Clock::now();
  {
    std::optional<EvalGuard> eval;
    if (model_.training()) eval.emplace(model_);
    const std::int64_t b = static_cast<std::int64_t>(seqs.size());
    for (std::int64_t off = 0; off < b; off += cfg_.max_batch) {
      const std::int64_t nb = std::min(cfg_.max_batch, b - off);
      std::vector<core::PatchSequence> chunk(seqs.begin() + off,
                                             seqs.begin() + off + nb);
      core::TokenBatch tb = prepare(chunk, target);
      Tensor logits = forward(tb);  // [nb, C, Z, Z]
      if (!out.logits.defined()) {
        out.logits =
            Tensor({n, logits.size(1), logits.size(2), logits.size(3)});
      }
      const std::int64_t per_image = logits.numel() / nb;
      for (std::int64_t j = 0; j < nb; ++j) {
        std::copy(logits.data() + j * per_image,
                  logits.data() + (j + 1) * per_image,
                  out.logits.data() + miss_idx[off + j] * per_image);
      }
      out.stats.batches += 1;
    }
  }
  out.stats.forward_seconds = seconds_since(t_fwd);
  out.stats.gemm_backend = active_gemm_backend().name();

  // Delivered encoder compute: the serving path skips padding everywhere
  // (fused attention + mask-aware dense layers), so each image costs its
  // VALID token count, not the padded batch length. Cache hits delivered
  // no new compute and add nothing here.
  for (const core::PatchSequence& s : seqs)
    out.stats.model_flops += flops_for_tokens(s.num_valid());

  // Stage 3: decode pixel-space masks (hit slots decode the cached
  // logits to bitwise-identical masks — decode is deterministic).
  out.masks = decode(out.logits);

  // Populate the result tier with the freshly computed misses.
  if (cache_ && cache_->result_tier_enabled()) {
    for (std::size_t m = 0; m < seqs.size(); ++m) {
      const std::int64_t i = miss_idx[m];
      const std::int64_t per_image = out.logits.numel() / n;
      CachedResult value;
      value.logits = Tensor(
          {1, out.logits.size(1), out.logits.size(2), out.logits.size(3)});
      std::copy(out.logits.data() + i * per_image,
                out.logits.data() + (i + 1) * per_image,
                value.logits.data());
      value.mask = out.masks[static_cast<std::size_t>(i)];
      value.valid_tokens = seqs[m].num_valid();
      value.model_flops = flops_for_tokens(seqs[m].num_valid());
      store_result(*keys[static_cast<std::size_t>(i)], value);
    }
  }

  out.stats.total_seconds = seconds_since(t_start);
  return out;
}

img::Image InferenceEngine::predict_mask(const img::Image& image) {
  return run({image}).masks[0];
}

}  // namespace apf::serve
