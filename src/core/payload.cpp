#include "core/payload.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "common/check.hpp"
#include "common/nonfinite.hpp"
#include "exec/pool.hpp"
#include "refl/config_io.hpp"
#include "refl/tlv.hpp"
#include "simd/simd.hpp"
#include "tensor/serialize.hpp"

namespace of::core {
namespace {

using tensor::ConstFloatSpan;
using tensor::FloatSpan;

// Aggregations below this element count stay serial — the pool round-trip
// costs more than the arithmetic. Sharding over coordinates preserves the
// per-element accumulation order, so serial and parallel results are
// bitwise identical and the gate may consult the thread count.
constexpr std::size_t kAggParallelCutoff = 1 << 14;

// Run `coords(lo, hi)` over [0, total), sharded across the pool when the
// aggregation is large enough to pay for it.
template <class Fn>
void for_coords(std::size_t total, const Fn& coords) {
  if (total >= kAggParallelCutoff && exec::Pool::global().threads() > 1)
    exec::Pool::global().parallel_for(total, 0, coords);
  else
    coords(0, total);
}

enum : std::uint8_t {
  kPlain = 0,
  kCompressed = 1,
  kPrivacy = 2,
  kSkip = 3,
  kPlainF16 = 4,  // plain body in the fp16 wire repr (2 bytes/elem)
};

// Plain-family frames carry raw (f32 or f16) coordinate data whose body is
// exactly total × elem bytes — the only modes the coordinate-sharded
// aggregation can slice without decoding.
bool plain_mode(std::uint8_t mode) { return mode == kPlain || mode == kPlainF16; }
std::size_t plain_elem_size(std::uint8_t mode) {
  return mode == kPlainF16 ? sizeof(std::uint16_t) : sizeof(float);
}

// acc += alpha * body[lo..hi) for a plain-family body view.
void accum_plain_bytes(std::uint8_t mode, ConstByteSpan body, double alpha,
                       FloatSpan acc) {
  if (mode == kPlainF16)
    tensor::add_scaled_from_f16_bytes(body, alpha, acc);
  else
    tensor::add_scaled_from_bytes(body, alpha, acc);
}

// Magic opening a v2 TLV partial header ("OFP2" little-endian).
constexpr std::uint32_t kPartialMagic = 0x3250464Fu;

// u32 magic | u32 header_len | TLV(PartialHeader), ahead of a partial's body.
void append_partial_header(Bytes& out, std::size_t count, WireRepr repr) {
  PartialHeader hdr;
  hdr.count = static_cast<std::uint64_t>(count);
  hdr.repr = repr;
  refl::tlv::Bytes htlv;
  refl::tlv::encode(hdr, htlv);
  tensor::append_pod<std::uint32_t>(out, kPartialMagic);
  tensor::append_pod<std::uint32_t>(out, static_cast<std::uint32_t>(htlv.size()));
  out.insert(out.end(), htlv.begin(), htlv.end());
}

// Mirror of the comm layer's 1 GiB frame cap: no manifest may describe an
// update larger than a maximal frame could carry, no matter what its dims
// claim. Keeps a tiny hostile frame from provoking a huge allocation.
constexpr std::size_t kMaxUpdateElems = (std::size_t{1} << 30) / sizeof(float);

void write_manifest(Bytes& out, const std::vector<Tensor>& payload) {
  tensor::append_pod<std::uint32_t>(out, static_cast<std::uint32_t>(payload.size()));
  for (const auto& t : payload) {
    tensor::append_pod<std::uint32_t>(out, static_cast<std::uint32_t>(t.ndim()));
    for (std::size_t d : t.shape()) tensor::append_pod<std::uint64_t>(out, d);
  }
}

std::vector<tensor::Shape> read_manifest(ConstByteSpan in, std::size_t& off) {
  const auto count = tensor::read_pod<std::uint32_t>(in, off);
  // Every manifest entry occupies at least its u32 ndim, so a hostile count
  // (e.g. 2^32-1 in a 10-byte frame) is rejected before the shapes vector
  // allocates.
  OF_CHECK_MSG(count <= (in.size() - off) / sizeof(std::uint32_t),
               "manifest tensor count " << count << " exceeds frame — corrupt frame?");
  std::vector<tensor::Shape> shapes(count);
  std::size_t total = 0;
  for (auto& shape : shapes) {
    const auto ndim = tensor::read_pod<std::uint32_t>(in, off);
    OF_CHECK_MSG(ndim <= 8, "implausible tensor rank in payload manifest");
    shape.resize(ndim);
    std::size_t numel = 1;
    for (auto& d : shape) {
      const auto dim = tensor::read_pod<std::uint64_t>(in, off);
      // Compressed/privacy bodies are smaller than numel·4, so dims cannot
      // be capped against the remaining bytes — cap the running element
      // count against the frame-size ceiling instead.
      OF_CHECK_MSG(dim <= kMaxUpdateElems && (dim == 0 || numel <= kMaxUpdateElems / dim),
                   "manifest dims exceed the 1 GiB frame cap — corrupt frame?");
      numel *= static_cast<std::size_t>(dim);
      d = static_cast<std::size_t>(dim);
    }
    OF_CHECK_MSG(total <= kMaxUpdateElems - numel,
                 "manifest total exceeds the 1 GiB frame cap — corrupt frame?");
    total += numel;
  }
  return shapes;
}

std::size_t manifest_numel(const std::vector<tensor::Shape>& shapes) {
  std::size_t total = 0;
  for (const auto& s : shapes) total += tensor::shape_numel(s);
  return total;
}

// Split a flat float buffer into the manifest's tensor-list structure — the
// single structure-materializing copy at the very end of the decode path.
std::vector<Tensor> split_flat(ConstFloatSpan flat, const std::vector<tensor::Shape>& shapes) {
  std::vector<Tensor> out;
  out.reserve(shapes.size());
  std::size_t off = 0;
  for (const auto& shape : shapes) {
    const std::size_t n = tensor::shape_numel(shape);
    OF_CHECK_MSG(off + n <= flat.size(), "flat payload shorter than manifest");
    Tensor t(shape);
    std::copy_n(flat.data() + off, n, t.data());
    off += n;
    out.push_back(std::move(t));
  }
  OF_CHECK_MSG(off == flat.size(), "flat payload longer than manifest");
  return out;
}

// Scale-while-flatten into a contiguous scratch span (plugin paths need the
// flat update in one piece). The scale stays double until the final store.
// Returns true iff every source element was finite (the fused admission
// screen); callers reject the update when it comes back false.
bool flatten_scaled(const std::vector<Tensor>& payload, double weight_scale, FloatSpan dst) {
  std::size_t pos = 0;
  bool finite = true;
  for (const auto& t : payload) {
    finite &= simd::scale_store(dst.data() + pos, t.data(), weight_scale, t.numel());
    pos += t.numel();
  }
  OF_CHECK_MSG(pos == dst.size(), "flatten size mismatch");
  return finite;
}

// Locate the first non-finite coordinate (flatten order) and throw the
// structured per-client admission error. Cold path — only runs after a
// fused finite screen already said "reject".
[[noreturn]] void throw_nonfinite(const std::vector<Tensor>& payload, int client_id) {
  std::size_t base = 0;
  for (const auto& t : payload) {
    const std::size_t at = simd::find_nonfinite(t.data(), t.numel());
    if (at < t.numel()) throw NonFiniteUpdateError(base + at, client_id);
    base += t.numel();
  }
  throw NonFiniteUpdateError(base, client_id);  // unreachable in practice
}

// Decode the mode-specific body of a plain/compressed frame into `out`
// (size `total`), reading through the view at its nonzero offset.
void decode_body_into(ConstByteSpan frame, std::size_t off, std::uint8_t mode,
                      std::size_t total, compression::Compressor* decompressor,
                      FloatSpan out) {
  if (mode == kPlain) {
    OF_CHECK_MSG(frame.size() - off == total * sizeof(float),
                 "trailing bytes in plain payload");
    tensor::read_span(frame, off, out.data(), total);
    return;
  }
  if (mode == kPlainF16) {
    OF_CHECK_MSG(frame.size() - off == total * sizeof(std::uint16_t),
                 "trailing bytes in f16 payload");
    // The body sits at an odd frame offset (mode byte + manifest), so the
    // halves are staged through an aligned block before widening — a u16
    // load straight off the frame would be misaligned.
    const std::uint8_t* src = frame.data() + off;
    std::uint16_t block[256];
    for (std::size_t i = 0; i < total;) {
      const std::size_t chunk = std::min<std::size_t>(std::size(block), total - i);
      std::memcpy(block, src + i * sizeof(std::uint16_t), chunk * sizeof(std::uint16_t));
      simd::f16_to_f32(out.data() + i, block, chunk);
      i += chunk;
    }
    return;
  }
  if (mode == kCompressed) {
    OF_CHECK_MSG(decompressor != nullptr, "compressed payload but no codec configured");
    const auto original_numel =
        static_cast<std::size_t>(tensor::read_pod<std::uint64_t>(frame, off));
    const auto len = tensor::read_pod<std::uint64_t>(frame, off);
    OF_CHECK_MSG(off + len == frame.size(), "compressed payload length mismatch");
    OF_CHECK_MSG(original_numel == total, "compressed payload numel mismatch");
    const compression::CompressedView view(frame.subspan(off), original_numel);
    decompressor->decompress(view, out);
    return;
  }
  OF_CHECK_MSG(false, "decode_update cannot decode privacy frames individually");
}

// write_manifest for a shape list (StreamingSum has no tensors, only shapes).
void write_manifest_shapes(Bytes& out, const std::vector<tensor::Shape>& shapes) {
  tensor::append_pod<std::uint32_t>(out, static_cast<std::uint32_t>(shapes.size()));
  for (const auto& s : shapes) {
    tensor::append_pod<std::uint32_t>(out, static_cast<std::uint32_t>(s.size()));
    for (std::size_t d : s) tensor::append_pod<std::uint64_t>(out, d);
  }
}

}  // namespace

StreamingSum::StreamingSum(FramePool& pool, compression::Compressor* decompressor)
    : pool_(&pool), decompressor_(decompressor) {}

void StreamingSum::reset() {
  acc_ = FramePool::FloatHandle{};
  shapes_.clear();
  total_ = 0;
  count_ = 0;
  init_ = false;
}

void StreamingSum::ensure_shapes(std::uint8_t mode, const std::vector<tensor::Shape>& shapes,
                                 std::size_t total) {
  if (!init_) {
    mode_ = mode;
    shapes_ = shapes;
    total_ = total;
    acc_ = pool_->acquire_floats(total_);
    std::fill(acc_->begin(), acc_->end(), 0.0f);
    peak_bytes_ = std::max(peak_bytes_, total_ * sizeof(float));
    init_ = true;
    return;
  }
  OF_CHECK_MSG(mode == mode_, "mixed payload modes in one aggregation");
  OF_CHECK_MSG(shapes.size() == shapes_.size() && total == total_,
               "payload structure mismatch");
}

template <class Frame>
std::size_t StreamingSum::fold(const Frame* frames, std::size_t n, double weight) {
  // A compressed body is decoded on this thread (codecs may keep scratch)
  // and only its accumulate is sharded; plain bodies are checked here and
  // added in one sharded pass below. Either way each element gets the same
  // scalar expression, in frame order, at any thread count (DESIGN.md §8).
  std::size_t folded = 0;
  FramePool::FloatHandle scratch;  // one decode buffer for the whole call
  for (std::size_t i = 0; i < n; ++i) {
    const ConstByteSpan frame = frames[i];
    if (is_skip_update(frame)) continue;
    ++folded;
    std::size_t off = 0;
    const auto mode = tensor::read_pod<std::uint8_t>(frame, off);
    OF_CHECK_MSG(mode != kPrivacy,
                 "privacy frames cannot stream into a partial sum — use the "
                 "collect-then-mean path");
    const auto shapes = read_manifest(frame, off);
    const std::size_t total = manifest_numel(shapes);
    ensure_shapes(mode, shapes, total);
    if (plain_mode(mode)) {
      OF_CHECK_MSG(frame.size() - off == total * plain_elem_size(mode),
                   "trailing bytes in plain payload");
      continue;
    }
    if (!scratch) scratch = pool_->acquire_floats(total);
    decode_body_into(frame, off, mode, total, decompressor_, FloatSpan(*scratch));
    for_coords(total, [&](std::size_t lo, std::size_t hi) {
      simd::accum_weighted(acc_->data() + lo, scratch->data() + lo,
                           static_cast<float>(weight), hi - lo);
    });
    peak_bytes_ = std::max(peak_bytes_, 2 * total * sizeof(float));
  }
  if (folded == 0 || !plain_mode(mode_)) return folded;
  const std::size_t elem = plain_elem_size(mode_);
  float* acc = acc_->data();
  for_coords(total_, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = 0; i < n; ++i) {
      const ConstByteSpan frame = frames[i];
      if (is_skip_update(frame)) continue;
      // A plain body is the frame's last total × elem bytes.
      const std::size_t start = frame.size() - (total_ - lo) * elem;
      accum_plain_bytes(mode_, frame.subspan(start, (hi - lo) * elem), weight,
                        FloatSpan(acc + lo, hi - lo));
    }
  });
  return folded;
}

void StreamingSum::add(ConstByteSpan frame, double weight) {
  count_ += fold(&frame, 1, weight);
}

void StreamingSum::add(const std::vector<Bytes>& frames) {
  count_ += fold(frames.data(), frames.size(), 1.0);
}

void StreamingSum::add_partial(ConstByteSpan partial) {
  std::size_t off = 0;
  PartialHeader hdr;
  OF_CHECK_MSG(partial.size() >= 8 &&
                   tensor::read_pod<std::uint32_t>(partial, off) == kPartialMagic,
               "combiner partial without the OFP2 header");
  const auto hlen = tensor::read_pod<std::uint32_t>(partial, off);
  OF_CHECK_MSG(hlen <= partial.size() - off, "partial header truncated");
  OF_CHECK_MSG(refl::tlv::decode(hdr, partial.data() + off, hlen),
               "partial header malformed");
  off += hlen;
  if (hdr.count == 0) return;  // empty combiner: its body is a skip marker
  const ConstByteSpan body = partial.subspan(off);
  OF_CHECK_MSG(fold(&body, 1, 1.0) == 1,
               "partial of " << hdr.count << " contributions carries no update body");
  count_ += static_cast<std::size_t>(hdr.count);
}

void StreamingSum::encode_partial_into(double scale,
                                       compression::Compressor* compressor,
                                       Bytes& out, WireRepr repr) {
  out.clear();
  append_partial_header(out, count_, compressor ? WireRepr::F32 : repr);
  if (count_ == 0) {
    out.push_back(kSkip);
    return;
  }
  if (!compressor) {
    // A combiner's sum of admitted (finite) updates can still overflow to
    // Inf; surface it here rather than forwarding a poisoned partial.
    out.push_back(repr == WireRepr::F16 ? kPlainF16 : kPlain);
    write_manifest_shapes(out, shapes_);
    const bool finite =
        repr == WireRepr::F16
            ? tensor::append_scaled_f16_span(out, ConstFloatSpan(*acc_), scale)
            : tensor::append_scaled_span(out, ConstFloatSpan(*acc_), scale);
    if (!finite)
      throw NonFiniteUpdateError(
          simd::find_nonfinite(acc_->data(), total_));
    return;
  }
  out.push_back(kCompressed);
  write_manifest_shapes(out, shapes_);
  FramePool::FloatHandle flat = pool_->acquire_floats(total_);
  if (!simd::scale_store(flat->data(), acc_->data(), scale, total_))
    throw NonFiniteUpdateError(simd::find_nonfinite(acc_->data(), total_));
  FramePool::Handle lent = pool_->acquire();
  compression::Compressed c;
  c.payload = std::move(*lent);
  compressor->compress(ConstFloatSpan(*flat), c);
  tensor::append_pod<std::uint64_t>(out, c.original_numel);
  tensor::append_pod<std::uint64_t>(out, c.payload.size());
  tensor::append_span(out, ConstByteSpan(c.payload));
  *lent = std::move(c.payload);
  peak_bytes_ = std::max(peak_bytes_, 2 * total_ * sizeof(float));
}

void wrap_count_one_partial(Bytes& frame) {
  const bool skip = is_skip_update(frame);
  Bytes header;
  append_partial_header(header, skip ? 0 : 1,
                        !skip && frame[0] == kPlainF16 ? WireRepr::F16 : WireRepr::F32);
  frame.insert(frame.begin(), header.begin(), header.end());
}

std::vector<Tensor> StreamingSum::finish_mean() {
  OF_CHECK_MSG(count_ > 0, "no client updates to aggregate (all skipped?)");
  const float inv = 1.0f / static_cast<float>(count_);
  simd::scale(acc_->data(), inv, total_);
  return split_flat(ConstFloatSpan(*acc_), shapes_);
}

PayloadConfig PayloadConfig::from_config(const config::ConfigNode& node, bool strict) {
  if (!node.is_map()) return PayloadConfig{};
  return refl::from_node<PayloadConfig>(node, "payload", {}, strict);
}

Bytes pack_tensors(const std::vector<Tensor>& ts) { return tensor::serialize_tensors(ts); }

static_assert(sizeof(RoundMetrics) == kMetricsTrailerBytes, "trailer is four packed f32");

void append_metrics(Bytes& frame, const RoundMetrics& m) { tensor::append_pod(frame, m); }

RoundMetrics strip_metrics(Bytes& frame) {
  OF_CHECK_MSG(frame.size() >= kMetricsTrailerBytes,
               "update frame shorter than its " << kMetricsTrailerBytes
                                                << "-byte metrics trailer");
  std::size_t off = frame.size() - kMetricsTrailerBytes;
  const auto m = tensor::read_pod<RoundMetrics>(frame, off);
  frame.resize(frame.size() - kMetricsTrailerBytes);
  return m;
}

Bytes encode_skip_update() { return Bytes{kSkip}; }

bool is_skip_update(ConstByteSpan frame) {
  return frame.size() == 1 && frame[0] == kSkip;
}

std::vector<Tensor> unpack_tensors(const Bytes& b) { return tensor::deserialize_tensors(b); }

void encode_update_into(const std::vector<Tensor>& payload, double weight_scale,
                        const PayloadPlugins& plugins, int client_id, int num_clients,
                        FramePool& pool, Bytes& out, WireRepr repr) {
  OF_CHECK_MSG(!(plugins.compressor && plugins.privacy),
               "compression and privacy plugins cannot stack on the same link");
  out.clear();
  if (!plugins.privacy && !plugins.compressor) {
    // Plain: scale-while-flatten straight into the frame — no clone, no
    // intermediate flat tensor, no extra byte buffer. The finite screen
    // rides the same store.
    const bool f16 = repr == WireRepr::F16;
    out.push_back(f16 ? kPlainF16 : kPlain);
    write_manifest(out, payload);
    bool finite = true;
    for (const auto& t : payload)
      finite &= f16 ? tensor::append_scaled_f16_span(out, t.span(), weight_scale)
                    : tensor::append_scaled_span(out, t.span(), weight_scale);
    if (!finite) throw_nonfinite(payload, client_id);
    return;
  }

  std::size_t total = 0;
  for (const auto& t : payload) total += t.numel();

  if (plugins.privacy) {
    // Privacy needs the flat update in one contiguous piece: flatten into
    // pooled scratch, hand the mechanism a view, append its body.
    FramePool::FloatHandle flat = pool.acquire_floats(total);
    if (!flatten_scaled(payload, weight_scale, FloatSpan(*flat)))
      throw_nonfinite(payload, client_id);
    out.push_back(kPrivacy);
    write_manifest(out, payload);
    FramePool::Handle body = pool.acquire();
    plugins.privacy->protect(ConstFloatSpan(*flat), client_id, num_clients, *body);
    tensor::append_pod<std::uint64_t>(out, body->size());
    tensor::append_span(out, ConstByteSpan(*body));
    return;
  }

  out.push_back(kCompressed);
  write_manifest(out, payload);
  // Lend the codec a pooled buffer as its payload storage so repeated
  // compress calls reuse capacity, then hand it back.
  FramePool::Handle lent = pool.acquire();
  compression::Compressed c;
  c.payload = std::move(*lent);
  bool fused = false;
  try {
    // Fused quantize-on-the-wire: codecs with a compress_scaled path (QSGD)
    // scale-while-flatten tile by tile — the O(model) intermediate float
    // frame below never materializes.
    fused = plugins.compressor->compress_scaled(payload, weight_scale, c);
  } catch (const NonFiniteUpdateError& e) {
    *lent = std::move(c.payload);  // hand the pooled buffer back
    throw NonFiniteUpdateError(e.coordinate(), client_id);
  }
  if (!fused) {
    FramePool::FloatHandle flat = pool.acquire_floats(total);
    if (!flatten_scaled(payload, weight_scale, FloatSpan(*flat))) {
      *lent = std::move(c.payload);
      throw_nonfinite(payload, client_id);
    }
    plugins.compressor->compress(ConstFloatSpan(*flat), c);
  }
  tensor::append_pod<std::uint64_t>(out, c.original_numel);
  tensor::append_pod<std::uint64_t>(out, c.payload.size());
  tensor::append_span(out, ConstByteSpan(c.payload));
  *lent = std::move(c.payload);
}

Bytes encode_update(const std::vector<Tensor>& payload, double weight_scale,
                    const PayloadPlugins& plugins, int client_id, int num_clients,
                    WireRepr repr) {
  FramePool pool;
  Bytes out;
  encode_update_into(payload, weight_scale, plugins, client_id, num_clients, pool, out,
                     repr);
  return out;
}

std::vector<Tensor> decode_update(ConstByteSpan frame,
                                  compression::Compressor* decompressor) {
  std::size_t off = 0;
  const auto mode = tensor::read_pod<std::uint8_t>(frame, off);
  const auto shapes = read_manifest(frame, off);
  const std::size_t total = manifest_numel(shapes);
  std::vector<float> flat(total);
  decode_body_into(frame, off, mode, total, decompressor, FloatSpan(flat));
  return split_flat(ConstFloatSpan(flat), shapes);
}

AggregationRule parse_aggregation_rule(const std::string& name) {
  if (name == "mean") return AggregationRule::Mean;
  if (name == "median") return AggregationRule::Median;
  if (name == "trimmed_mean") return AggregationRule::TrimmedMean;
  OF_CHECK_MSG(false, "unknown aggregation rule '" << name << "'");
}

std::vector<Tensor> robust_combine(const std::vector<Bytes>& raw_frames,
                                   compression::Compressor* decompressor,
                                   AggregationRule rule, double trim, FramePool* pool) {
  if (rule == AggregationRule::Mean)
    return mean_updates(raw_frames, decompressor, nullptr, pool);
  OF_CHECK_MSG(trim >= 0.0 && trim < 0.5, "trim fraction must be in [0, 0.5)");
  FramePool local_pool;
  FramePool& p = pool ? *pool : local_pool;

  // Decode every contribution into a pooled flat buffer; the tensor-list
  // structure is materialized exactly once, after the coordinate-wise pass.
  std::vector<tensor::Shape> shapes;
  std::size_t total = 0;
  std::vector<FramePool::FloatHandle> decoded;
  for (const auto& f : raw_frames) {
    if (is_skip_update(f)) continue;
    std::size_t off = 0;
    const auto mode = tensor::read_pod<std::uint8_t>(f, off);
    const auto frame_shapes = read_manifest(f, off);
    const std::size_t frame_total = manifest_numel(frame_shapes);
    if (decoded.empty()) {
      shapes = frame_shapes;
      total = frame_total;
    } else {
      OF_CHECK_MSG(frame_total == total, "payload structure mismatch");
    }
    FramePool::FloatHandle flat = p.acquire_floats(frame_total);
    decode_body_into(f, off, mode, frame_total, decompressor, FloatSpan(*flat));
    decoded.push_back(std::move(flat));
  }
  OF_CHECK_MSG(!decoded.empty(), "no client updates to aggregate (all skipped?)");

  const std::size_t k = decoded.size();
  const std::size_t cut = static_cast<std::size_t>(trim * static_cast<double>(k));
  FramePool::FloatHandle result = p.acquire_floats(total);
  // Coordinates are independent, so sharding them over the pool computes
  // exactly the serial values; each shard sorts into its own column scratch.
  const auto coords = [&](std::size_t lo, std::size_t hi) {
    std::vector<float> column(k);
    for (std::size_t i = lo; i < hi; ++i) {
      for (std::size_t c = 0; c < k; ++c) column[c] = (*decoded[c])[i];
      std::sort(column.begin(), column.end());
      if (rule == AggregationRule::Median) {
        (*result)[i] =
            (k % 2) ? column[k / 2] : 0.5f * (column[k / 2 - 1] + column[k / 2]);
      } else {  // trimmed mean
        double sum = 0.0;
        for (std::size_t c = cut; c < k - cut; ++c) sum += column[c];
        (*result)[i] = static_cast<float>(sum / static_cast<double>(k - 2 * cut));
      }
    }
  };
  for_coords(total, coords);
  return split_flat(ConstFloatSpan(*result), shapes);
}

std::vector<Tensor> mean_updates(const std::vector<Bytes>& raw_frames,
                                 compression::Compressor* decompressor,
                                 privacy::PrivacyMechanism* privacy, FramePool* pool) {
  FramePool local_pool;
  FramePool& p = pool ? *pool : local_pool;

  // Drop skip markers (partial participation) before aggregating. Views
  // only — the frames stay where they arrived.
  std::vector<ConstByteSpan> frames;
  frames.reserve(raw_frames.size());
  for (const auto& f : raw_frames)
    if (!is_skip_update(f)) frames.push_back(f);
  OF_CHECK_MSG(!frames.empty(), "no client updates to aggregate (all skipped?)");

  if (frames[0].empty() || frames[0][0] != kPrivacy) {
    // Plain / compressed: one streaming fold over the frames, in order.
    StreamingSum sum(p, decompressor);
    sum.add(raw_frames);
    return sum.finish_mean();
  }

  // Privacy: the mechanism can only form the sum; each frame is narrowed
  // to its body for it.
  OF_CHECK_MSG(privacy != nullptr, "privacy payload but no mechanism configured");
  std::vector<tensor::Shape> shapes;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    std::size_t off = 0;
    const auto m = tensor::read_pod<std::uint8_t>(frames[i], off);
    OF_CHECK_MSG(m == kPrivacy, "mixed payload modes in one aggregation");
    auto frame_shapes = read_manifest(frames[i], off);
    if (i == 0) shapes = std::move(frame_shapes);
    const auto len = tensor::read_pod<std::uint64_t>(frames[i], off);
    OF_CHECK_MSG(off + len == frames[i].size(), "privacy payload length mismatch");
    frames[i] = frames[i].subspan(off);
  }
  const std::size_t total = manifest_numel(shapes);
  FramePool::FloatHandle sum = p.acquire_floats(total);
  privacy->aggregate_sum(frames, FloatSpan(*sum));
  simd::scale(sum->data(), 1.0f / static_cast<float>(frames.size()), total);
  return split_flat(ConstFloatSpan(*sum), shapes);
}

}  // namespace of::core
