// Sparsification codecs: TopK, RandomK, DGC, RedSync, SIDCo.
// All emit the shared sparse payload format (see sparse_encode) and differ
// only in how they *select* which coordinates survive:
//   TopK    — exact magnitude top-k (nth_element)
//   RandomK — uniform random k (cheapest selection, worst quality)
//   DGC     — Deep Gradient Compression: threshold estimated from a random
//             sample, then refined — avoids a full sort on huge tensors
//   RedSync — trimmed binary search of the threshold to land within a
//             tolerance band of the target k
//   SIDCo   — statistical fit (exponential model of |g|) with multi-stage
//             refinement to estimate the threshold analytically
#pragma once

#include "compression/compressor.hpp"

namespace of::compression {

// Shared sparse payload: u64 nnz | u32 idx[nnz] | f32 val[nnz].
// The into-form clears `out` (keeping capacity) before writing.
void sparse_encode(Bytes& out, const std::vector<std::uint32_t>& idx,
                   const std::vector<float>& val);
Bytes sparse_encode(const std::vector<std::uint32_t>& idx, const std::vector<float>& val);
void sparse_decode(tensor::ConstByteSpan payload, std::vector<std::uint32_t>& idx,
                   std::vector<float>& val);

// Resolve an absolute k from a factor-or-absolute spec for a given size.
std::size_t resolve_k(double factor_or_k, bool is_factor, std::size_t numel);

class TopK final : public Compressor {
 public:
  // factor form: keep numel/factor elements; absolute form: keep k.
  TopK(double factor_or_k, bool is_factor);
  void compress(ConstFloatSpan input, Compressed& out) override;
  void decompress(const CompressedView& c, FloatSpan out) override;
  using Compressor::compress;
  using Compressor::decompress;
  std::string name() const override { return "TopK"; }
  bool allreduce_compatible() const override { return false; }

 private:
  double spec_;
  bool is_factor_;
  std::vector<float> work_;         // |values| for the nth_element threshold
  std::vector<std::uint32_t> idx_;  // selected coordinates
  std::vector<float> val_;          // their values
};

class RandomK final : public Compressor {
 public:
  RandomK(double factor_or_k, bool is_factor, std::uint64_t seed);
  void compress(ConstFloatSpan input, Compressed& out) override;
  void decompress(const CompressedView& c, FloatSpan out) override;
  using Compressor::compress;
  using Compressor::decompress;
  std::string name() const override { return "RandomK"; }
  bool allreduce_compatible() const override { return false; }

 private:
  double spec_;
  bool is_factor_;
  Rng rng_;
};

class DGC final : public Compressor {
 public:
  DGC(double factor_or_k, bool is_factor, std::uint64_t seed,
      double sample_fraction = 0.01);
  void compress(ConstFloatSpan input, Compressed& out) override;
  void decompress(const CompressedView& c, FloatSpan out) override;
  using Compressor::compress;
  using Compressor::decompress;
  std::string name() const override { return "DGC"; }
  bool allreduce_compatible() const override { return false; }

 private:
  double spec_;
  bool is_factor_;
  Rng rng_;
  double sample_fraction_;
};

class RedSync final : public Compressor {
 public:
  RedSync(double factor_or_k, bool is_factor, double tolerance = 0.2,
          int max_iterations = 20);
  void compress(ConstFloatSpan input, Compressed& out) override;
  void decompress(const CompressedView& c, FloatSpan out) override;
  using Compressor::compress;
  using Compressor::decompress;
  std::string name() const override { return "RedSync"; }
  bool allreduce_compatible() const override { return false; }

 private:
  double spec_;
  bool is_factor_;
  double tolerance_;
  int max_iterations_;
};

class SIDCo final : public Compressor {
 public:
  SIDCo(double factor_or_k, bool is_factor, int stages = 3);
  void compress(ConstFloatSpan input, Compressed& out) override;
  void decompress(const CompressedView& c, FloatSpan out) override;
  using Compressor::compress;
  using Compressor::decompress;
  std::string name() const override { return "SIDCo"; }
  bool allreduce_compatible() const override { return false; }

 private:
  double spec_;
  bool is_factor_;
  int stages_;
};

class Identity final : public Compressor {
 public:
  void compress(ConstFloatSpan input, Compressed& out) override;
  void decompress(const CompressedView& c, FloatSpan out) override;
  using Compressor::compress;
  using Compressor::decompress;
  std::string name() const override { return "Identity"; }
  bool allreduce_compatible() const override { return true; }
};

}  // namespace of::compression
