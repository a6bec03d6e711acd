// Payload codec: turns an algorithm's update (a list of tensors) into the
// wire frame and back, threading it through the optional compression and
// privacy plugins. The frame is self-describing:
//
//   u8 mode (0 plain | 1 compressed | 2 privacy | 3 skip | 4 plain-f16)
//   u32 ntensors | per tensor: u32 ndim, u64 dims[]      (shape manifest)
//   mode-specific body
//
// plain      — raw float data of the concatenated tensors
// plain-f16  — the same data in the fp16 wire representation (RTNE halves;
//              2 bytes/elem), selected by `payload: {wire: f16}`
// compressed — codec name + Compressed payload of the flat concat
//              (QSGD's int8/int16 codes — the fused quantize-on-the-wire
//              path produces them without an intermediate float frame)
// privacy    — PrivacyMechanism::protect() output of the flat concat
//
// The aggregator recovers the *weighted mean* of the client payloads: for
// plain/compressed it decodes each frame and averages; for privacy modes it
// can only form the sum (that is the point), then divides by the count.
//
// The hot paths are zero-copy: encode scales-while-flattening straight into
// a pooled frame buffer, and aggregation accumulates from frame *views*
// into one pooled flat accumulator, splitting into the tensor-list
// structure exactly once at the end (DESIGN.md § Update pipeline & memory
// model).
#pragma once

#include "compression/compressor.hpp"
#include "core/frame_pool.hpp"
#include "privacy/mechanism.hpp"
#include "refl/refl.hpp"
#include "tensor/tensor.hpp"

namespace of::core {

using tensor::Bytes;
using tensor::ConstByteSpan;
using tensor::Tensor;

struct PayloadPlugins {
  compression::Compressor* compressor = nullptr;   // client-side instance
  privacy::PrivacyMechanism* privacy = nullptr;    // shared mechanism
};

// Wire representation of *plain* float payloads. F16 halves plain-frame
// traffic (RTNE conversion on encode, exact widening on decode); compressed
// frames carry their codec's own representation (QSGD int8/int16) and
// ignore this knob. Decoders dispatch on the frame's mode byte, and partial
// frames additionally announce the repr as a TLV header field (tag 2) that
// pre-tag decoders skip — mixed-version fleets keep working as long as the
// sender only enables f16 when its receivers understand mode 4.
enum class WireRepr : std::uint8_t { F32 = 0, F16 = 1 };

// The `payload:` config group (configs/payload/{f32,f16}.yaml):
//   payload: {wire: f32|f16}
struct PayloadConfig {
  WireRepr wire = WireRepr::F32;

  static PayloadConfig from_config(const config::ConfigNode& node, bool strict = true);
};

// Client side: encode `payload`, pre-scaled by `weight_scale` so that the
// aggregator's uniform mean equals the intended weighted mean. The scale is
// applied in double during the flatten (narrowing it to float first loses
// the low bits of per-client sample weights). Clears and rewrites `out`
// (typically a pooled frame, so capacity persists across rounds); `pool`
// provides the flat/body scratch buffers the plugin paths need.
//
// Numeric admission: a NaN/Inf coordinate anywhere in `payload` throws
// of::NonFiniteUpdateError carrying the flat coordinate and `client_id` —
// callers turn it into a skip frame so the aggregator drops this client
// like any other non-contributor instead of letting one poisoned value
// spread through the aggregate. The screen is fused into the flatten store
// (simd::scale_store), so it costs no extra pass.
void encode_update_into(const std::vector<Tensor>& payload, double weight_scale,
                        const PayloadPlugins& plugins, int client_id, int num_clients,
                        FramePool& pool, Bytes& out, WireRepr repr = WireRepr::F32);

// Owning convenience for tests and cold paths.
Bytes encode_update(const std::vector<Tensor>& payload, double weight_scale,
                    const PayloadPlugins& plugins, int client_id, int num_clients,
                    WireRepr repr = WireRepr::F32);

// A tiny marker frame from a client that sits this round out (partial
// participation). mean_updates skips such frames and divides by the number
// of actual contributions.
Bytes encode_skip_update();
bool is_skip_update(ConstByteSpan frame);

// Aggregator side: decode frames (all clients, same plugin config) and
// return their uniform mean in the original tensor-list structure.
// Plain/compressed frames fold through one StreamingSum in frame order;
// privacy frames go to the mechanism's aggregate_sum, the only sum it can
// form. `decompressor` is the aggregator-side codec instance (stateless
// decode). With a pool, the flat accumulator and decode scratch come from
// it and the aggregation runs allocation-free at steady state.
std::vector<Tensor> mean_updates(const std::vector<Bytes>& frames,
                                 compression::Compressor* decompressor,
                                 privacy::PrivacyMechanism* privacy,
                                 FramePool* pool = nullptr);

// Decode a single plain/compressed frame (used by relays and tests). Reads
// through the view in place — compressed bodies are decoded at their offset
// inside the frame, never copied out first.
std::vector<Tensor> decode_update(ConstByteSpan frame,
                                  compression::Compressor* decompressor);

// Robust aggregation rules over individual client updates (coordinate-wise).
// Unlike the mean, these see each contribution, so they exclude privacy
// frames (which are only meaningful in aggregate). `trim` is the fraction
// clipped from EACH tail for the trimmed mean.
enum class AggregationRule { Mean, Median, TrimmedMean };
AggregationRule parse_aggregation_rule(const std::string& name);
std::vector<Tensor> robust_combine(const std::vector<Bytes>& frames,
                                   compression::Compressor* decompressor,
                                   AggregationRule rule, double trim = 0.1,
                                   FramePool* pool = nullptr);

// Per-round training metrics. Every star-link update frame (lockstep client
// updates, combiner partials and collect frames, serve Update/Final) ends
// in them as a fixed 16-byte trailer, placed before the optional telemetry
// tail:
//
//   f32 loss_sum | f32 steps | f32 acc_sum | f32 acc_n
//
// Receivers strip it with one resize, the same way as the telemetry tail,
// so no update frame is copied and aggregation sees the bare payload frame.
// T is the fold type: f32 on the wire and in the combiner tree, double in
// the centralized and serve loops. Lockstep folds run in rank order, never
// arrival order, so their sums are bitwise reproducible.
template <class T>
struct MetricSums {
  T loss_sum = 0, steps = 0, acc_sum = 0, acc_n = 0;

  template <class U>
  void add(const MetricSums<U>& m) {
    loss_sum += m.loss_sum;
    steps += m.steps;
    acc_sum += m.acc_sum;
    acc_n += m.acc_n;
  }
  double train_loss() const { return steps > 0 ? loss_sum / steps : 0.0; }
  float accuracy() const { return acc_n > 0 ? static_cast<float>(acc_sum / acc_n) : -1.0f; }
};
using RoundMetrics = MetricSums<float>;
inline constexpr std::size_t kMetricsTrailerBytes = 4 * sizeof(float);

void append_metrics(Bytes& frame, const RoundMetrics& m);
// Pop the trailer off `frame`. A frame shorter than the trailer is
// rejected with an error naming it.
RoundMetrics strip_metrics(Bytes& frame);

// Header of a combiner partial frame (the metadata ahead of the summed
// update body), carried as TLV behind an "OFP2" magic so new header fields
// are skipped by older decoders. Tags are wire ABI — append only.
struct PartialHeader {
  std::uint64_t count = 0;  // client contributions folded into the body
  // Wire repr of a *plain* body (mode 0/4); compressed bodies keep F32 here
  // and self-describe via their codec. Pre-tag decoders skip this TLV field
  // (tag 2) and dispatch on the body's mode byte alone.
  WireRepr repr = WireRepr::F32;
};

// Turn one encoded update frame into a count-1 partial in place: the OFP2
// header goes in front, the frame's bytes stay as they are. A skip frame
// becomes a count-0 partial. This is how a combiner that cannot stream (a
// privacy group, collected then meaned) forwards its group mean.
void wrap_count_one_partial(Bytes& frame);

// Streaming partial-sum accumulator — the one plain/compressed mean
// accumulator: under mean_updates, every mean-rule hub without privacy
// (DESIGN.md §4, §10) and serve's staleness buffer. Each frame is folded
// into one pooled flat accumulator, so the sum holds O(model) bytes no
// matter how many frames feed it; a combiner forwards only the partial sum
// plus its contribution count. Above a size cutoff a fold shards the
// coordinates over the exec pool; every element keeps the same scalar
// expression, so the sum is bitwise identical at any thread count (§8).
// Fold order is the caller's: float addition does not associate, so hubs
// fold in rank order. Privacy frames are rejected: secure aggregation needs
// every masked body at once, so a privacy combiner collects its group,
// means it, and forwards the mean as a count-1 partial
// (wrap_count_one_partial).
class StreamingSum {
 public:
  explicit StreamingSum(FramePool& pool,
                        compression::Compressor* decompressor = nullptr);

  // Forget all contributions (pooled capacity persists; peak_bytes does too).
  void reset();
  // Fold in one client update frame (plain/compressed, the same mode as
  // every earlier frame; skip markers are ignored and do not count as
  // contributions), scaled by `weight` — the
  // serve tier's staleness weight α/(1+s). The default 1.0 is the exact
  // unweighted fold (multiplying by 1.0 is an IEEE identity).
  void add(ConstByteSpan frame, double weight = 1.0);
  // Fold in several frames, unweighted (mean_updates, a hub's ready rank
  // prefix): bitwise the same as add() on each in turn, but plain bodies fold
  // in one pass, each coordinate shard walking every frame while its slice
  // of the accumulator is in cache.
  void add(const std::vector<Bytes>& frames);
  // Fold in a downstream combiner's partial produced by encode_partial_into.
  void add_partial(ConstByteSpan partial);
  // Emit `scale × sum` plus the header as a partial frame:
  //   u32 "OFP2" | u32 header_len | TLV(PartialHeader) | update frame
  // (skip marker body when count == 0). With repr == F16 (and no
  // compressor) the body is a plain-f16 frame, announced via the header's
  // repr field.
  void encode_partial_into(double scale, compression::Compressor* compressor,
                           Bytes& out, WireRepr repr = WireRepr::F32);
  // sum / count in the original tensor-list structure. Consumes the
  // accumulator (it then holds the mean); reset() before reuse.
  std::vector<Tensor> finish_mean();

  std::size_t count() const noexcept { return count_; }
  // Peak bytes of live aggregation state (accumulator + decode scratch) —
  // the quantity the O(model × combiners) bound is stated over.
  std::size_t peak_bytes() const noexcept { return peak_bytes_; }

 private:
  void ensure_shapes(std::uint8_t mode, const std::vector<tensor::Shape>& shapes,
                     std::size_t total);
  // Fold frames[0..n) in order; returns how many were not skip markers.
  template <class Frame>
  std::size_t fold(const Frame* frames, std::size_t n, double weight);

  FramePool* pool_;
  compression::Compressor* decompressor_;
  FramePool::FloatHandle acc_;
  std::uint8_t mode_ = 0;  // wire mode of the first folded frame
  std::vector<tensor::Shape> shapes_;
  std::size_t total_ = 0;
  std::size_t count_ = 0;
  std::size_t peak_bytes_ = 0;
  bool init_ = false;
};

// Pack/unpack a tensor list without plugins (global-payload broadcast).
Bytes pack_tensors(const std::vector<Tensor>& ts);
std::vector<Tensor> unpack_tensors(const Bytes& b);

}  // namespace of::core

template <>
struct of::refl::EnumNames<of::core::WireRepr> {
  static constexpr std::pair<of::core::WireRepr, const char*> names[] = {
      {of::core::WireRepr::F32, "f32"},
      {of::core::WireRepr::F16, "f16"},
  };
};

template <>
struct of::refl::Reflect<of::core::PartialHeader> {
  OF_REFL_FIELDS(field("count", &of::core::PartialHeader::count, 1),
                 field("repr", &of::core::PartialHeader::repr, 2))
};

template <>
struct of::refl::Reflect<of::core::PayloadConfig> {
  OF_REFL_FIELDS(field("wire", &of::core::PayloadConfig::wire, 1))
};
