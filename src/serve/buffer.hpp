// StalenessBuffer — FedBuff-style bounded aggregation buffer (DESIGN.md §14).
//
// Updates are folded into a pooled StreamingSum the moment they arrive,
// each weighted by its staleness: an update trained against a model
// `s` server versions old joins the buffer as (α/(1+s))·Δ. The buffer
// drains — one aggregation step, global += mean of the buffered weighted
// updates — every `capacity` accepted updates. capacity = 1 reproduces the
// FedAsync rule w ← w + α/(1+s)·Δ exactly; larger buffers trade update
// latency for a smoother, lower-variance aggregate.
//
// Admission control is explicit: offer() rejects an update when the buffer
// already holds `capacity` entries (the caller has deferred the drain) or
// when the staleness bound is exceeded, and the serving loop answers the
// client with a retry-after control frame instead of silently folding or
// dropping. Memory stays O(model) regardless of capacity — the buffer
// holds a running weighted sum, never the individual frames.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/payload.hpp"

namespace of::serve {

class StalenessBuffer {
 public:
  enum class Admission { Accepted, RejectedStale, RejectedFull };

  // `max_staleness` 0 = unbounded. `decompressor` is the aggregator-side
  // codec instance for compressed client frames.
  StalenessBuffer(core::FramePool& pool, compression::Compressor* decompressor,
                  std::size_t capacity, std::size_t max_staleness, double alpha);

  // Staleness weight for an accepted update: α/(1+s).
  double weight(std::size_t staleness) const;

  // Fold `frame` in with weight α/(1+staleness), or reject it. Rejections
  // leave the buffer untouched.
  Admission offer(tensor::ConstByteSpan frame, std::size_t staleness);

  bool ready() const noexcept { return size_ >= capacity_; }
  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return capacity_; }

  // Mean of the buffered weighted updates, in the payload's tensor-list
  // structure; resets the buffer for the next window. size() must be > 0.
  // A window of skip frames only (numeric admission rejected every update)
  // drains to an empty list: no model change, but the window still closes.
  std::vector<tensor::Tensor> drain();

  // Run counters (cumulative, not reset by drain()).
  std::uint64_t accepted_total() const noexcept { return accepted_; }
  std::uint64_t rejected_stale_total() const noexcept { return rejected_stale_; }
  std::uint64_t rejected_full_total() const noexcept { return rejected_full_; }
  std::uint64_t drains_total() const noexcept { return drains_; }
  // Staleness sum over accepted updates — mean_staleness for telemetry.
  std::uint64_t staleness_sum() const noexcept { return staleness_sum_; }
  std::size_t peak_bytes() const noexcept { return sum_.peak_bytes(); }

 private:
  core::StreamingSum sum_;
  std::size_t capacity_;
  std::size_t max_staleness_;
  double alpha_;
  std::size_t size_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t rejected_stale_ = 0;
  std::uint64_t rejected_full_ = 0;
  std::uint64_t drains_ = 0;
  std::uint64_t staleness_sum_ = 0;
};

}  // namespace of::serve
