#include "serve/buffer.hpp"

#include "common/check.hpp"

namespace of::serve {

StalenessBuffer::StalenessBuffer(core::FramePool& pool,
                                 compression::Compressor* decompressor,
                                 std::size_t capacity, std::size_t max_staleness,
                                 double alpha)
    : sum_(pool, decompressor),
      capacity_(capacity),
      max_staleness_(max_staleness),
      alpha_(alpha) {
  OF_CHECK_MSG(capacity_ >= 1, "staleness buffer capacity must be >= 1");
}

double StalenessBuffer::weight(std::size_t staleness) const {
  return alpha_ / (1.0 + static_cast<double>(staleness));
}

StalenessBuffer::Admission StalenessBuffer::offer(tensor::ConstByteSpan frame,
                                                  std::size_t staleness) {
  if (size_ >= capacity_) {
    ++rejected_full_;
    return Admission::RejectedFull;
  }
  if (max_staleness_ > 0 && staleness > max_staleness_) {
    ++rejected_stale_;
    return Admission::RejectedStale;
  }
  sum_.add(frame, weight(staleness));
  ++size_;
  ++accepted_;
  staleness_sum_ += staleness;
  return Admission::Accepted;
}

std::vector<tensor::Tensor> StalenessBuffer::drain() {
  OF_CHECK_MSG(size_ > 0, "staleness buffer drained with no accepted updates");
  std::vector<tensor::Tensor> mean;
  if (sum_.count() > 0) mean = sum_.finish_mean();
  sum_.reset();
  size_ = 0;
  ++drains_;
  return mean;
}

}  // namespace of::serve
