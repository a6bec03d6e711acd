// PrivacyMechanism — pluggable privacy layer (paper §3.4.4).
//
// A mechanism transforms a client's model update into a wire payload
// (protect) and turns the collected payloads back into the *sum* of the
// plain updates (aggregate_sum). This two-sided shape covers all three of
// the paper's mechanisms:
//   DP — noise added client-side, aggregation is plain summation
//   HE — ciphertexts cross the wire, aggregation is homomorphic
//   SA — pairwise masks cancel only in the sum
#pragma once

#include <memory>
#include <string>

#include "config/node.hpp"
#include "config/registry.hpp"
#include "tensor/serialize.hpp"
#include "tensor/tensor.hpp"

namespace of::privacy {

using tensor::Bytes;
using tensor::ConstByteSpan;
using tensor::ConstFloatSpan;
using tensor::FloatSpan;
using tensor::Rng;
using tensor::Tensor;

class PrivacyMechanism {
 public:
  PrivacyMechanism() = default;
  PrivacyMechanism(const PrivacyMechanism&) = delete;
  PrivacyMechanism& operator=(const PrivacyMechanism&) = delete;
  virtual ~PrivacyMechanism() = default;

  // Span-primary API (the zero-copy pipeline).
  // Client-side: wrap the flat update for transmission. Clears and rewrites
  // `out` — capacity survives, so pooled buffers amortize across rounds.
  virtual void protect(ConstFloatSpan update, int client_id, int num_clients,
                       Bytes& out) = 0;
  // Aggregator-side: overwrite `out` with the SUM of the protected updates,
  // reading each contribution in place (typically a view into a received
  // frame at a nonzero offset — implementations must not assume alignment).
  virtual void aggregate_sum(const std::vector<ConstByteSpan>& contributions,
                             FloatSpan out) = 0;
  virtual std::string name() const = 0;

  // Bind randomized mechanisms to a (round, client) stream, as
  // Compressor::set_stream does for codecs: DP noise is then a pure
  // function of (seed, round, client), not of how many protect() calls
  // came before. Mechanisms without such a stream ignore it.
  virtual void set_stream(std::uint64_t round, std::uint64_t client) {
    (void)round;
    (void)client;
  }

  // Owning conveniences for tests and cold paths.
  Bytes protect(const Tensor& update, int client_id, int num_clients) {
    Bytes out;
    protect(update.span(), client_id, num_clients, out);
    return out;
  }
  Tensor aggregate_sum(const std::vector<Bytes>& contributions, std::size_t numel) {
    const std::vector<ConstByteSpan> views(contributions.begin(), contributions.end());
    Tensor sum({numel});
    aggregate_sum(views, sum.span());
    return sum;
  }
};

// Sum serialized 1-D tensors (the NoPrivacy/DP wire body: u32 ndim | u64
// dims | f32 data) into `out`, overwriting it. Shared by mechanisms whose
// aggregation is plain summation.
void sum_serialized_tensors(const std::vector<ConstByteSpan>& contributions, FloatSpan out);

// Pass-through (serialize/sum), the default.
class NoPrivacy final : public PrivacyMechanism {
 public:
  void protect(ConstFloatSpan update, int client_id, int num_clients, Bytes& out) override;
  void aggregate_sum(const std::vector<ConstByteSpan>& contributions, FloatSpan out) override;
  using PrivacyMechanism::protect;
  using PrivacyMechanism::aggregate_sum;
  std::string name() const override { return "NoPrivacy"; }
};

// Param structs are reflected (src/refl/), so unknown/typo'd keys fail with
// a path-aware error unless strict=false.
using PrivacyRegistry = config::Registry<PrivacyMechanism, bool /*strict*/>;
PrivacyRegistry& privacy_registry();
std::unique_ptr<PrivacyMechanism> make_mechanism(const config::ConfigNode& cfg,
                                                 bool strict = true);

}  // namespace of::privacy
