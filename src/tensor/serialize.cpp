#include "tensor/serialize.hpp"

#include <algorithm>
#include <array>

#include "simd/simd.hpp"

namespace of::tensor {

bool append_scaled_span(Bytes& out, ConstFloatSpan src, double scale) {
  const std::size_t start = out.size();
  out.resize(start + src.size() * sizeof(float));
  // The scale is applied in double on purpose: per-client sample weights are
  // doubles, and squashing them to float before the multiply drops low bits
  // that the weighted mean then never recovers.
  return simd::scale_store_bytes(out.data() + start, src.data(), scale, src.size());
}

bool append_scaled_f16_span(Bytes& out, ConstFloatSpan src, double scale) {
  const std::size_t start = out.size();
  out.resize(start + src.size() * sizeof(std::uint16_t));
  return simd::scale_store_f16_bytes(out.data() + start, src.data(), scale,
                                     src.size());
}

void add_scaled_from_bytes(ConstByteSpan src, double alpha, FloatSpan acc) {
  OF_CHECK_MSG(src.size() == acc.size() * sizeof(float),
               "accumulate size mismatch: " << src.size() << " bytes vs " << acc.size()
                                            << " floats");
  // Frame bodies start at mode-byte + manifest offsets, so `src` is almost
  // never 4-byte aligned — the kernel uses unaligned loads throughout.
  simd::accum_scaled_bytes(acc.data(), src.data(), alpha, acc.size());
}

void add_scaled_from_f16_bytes(ConstByteSpan src, double alpha, FloatSpan acc) {
  OF_CHECK_MSG(src.size() == acc.size() * sizeof(std::uint16_t),
               "accumulate size mismatch: " << src.size() << " bytes vs " << acc.size()
                                            << " halves");
  simd::accum_scaled_f16_bytes(acc.data(), src.data(), alpha, acc.size());
}

namespace {

// Size of one tensor's record on the wire.
std::size_t serialized_size(const Tensor& t) {
  return sizeof(std::uint32_t) + sizeof(std::uint64_t) * t.ndim() + sizeof(float) * t.numel();
}

// The one shape reader behind every tensor decode: reads rank and dims into
// `dims` (no allocation) and rejects a hostile rank, or dims whose float
// data cannot fit in the rest of the frame, before anything is allocated.
// Returns the rank.
std::uint32_t read_shape(ConstByteSpan buf, std::size_t& offset,
                         std::array<std::size_t, 8>& dims) {
  const auto ndim = read_pod<std::uint32_t>(buf, offset);
  OF_CHECK_MSG(ndim <= 8, "implausible tensor rank " << ndim << " — corrupt frame?");
  std::size_t numel = 1;
  for (std::uint32_t i = 0; i < ndim; ++i) {
    const auto dim = read_pod<std::uint64_t>(buf, offset);
    // The float data for this tensor still has to fit in the remaining
    // payload; keep a running product so multi-dim shapes can't sneak past
    // a per-dim cap.
    const std::size_t max_numel = (buf.size() - offset) / sizeof(float);
    OF_CHECK_MSG(dim <= max_numel && (dim == 0 || numel <= max_numel / dim),
                 "tensor dims exceed remaining frame — corrupt frame?");
    numel *= static_cast<std::size_t>(dim);
    dims[i] = static_cast<std::size_t>(dim);
  }
  return ndim;
}

}  // namespace

void serialize_tensor(const Tensor& t, Bytes& out) {
  append_pod<std::uint32_t>(out, static_cast<std::uint32_t>(t.ndim()));
  for (std::size_t d : t.shape()) append_pod<std::uint64_t>(out, d);
  append_span(out, t.data(), t.numel());
}

Bytes serialize_tensor(const Tensor& t) {
  Bytes out;
  out.reserve(serialized_size(t));
  serialize_tensor(t, out);
  return out;
}

Tensor deserialize_tensor(ConstByteSpan buf, std::size_t& offset) {
  std::array<std::size_t, 8> dims{};
  const std::uint32_t ndim = read_shape(buf, offset, dims);
  Tensor t(Shape(dims.begin(), dims.begin() + ndim));
  read_span(buf, offset, t.data(), t.numel());
  return t;
}

Tensor deserialize_tensor(ConstByteSpan buf) {
  std::size_t offset = 0;
  Tensor t = deserialize_tensor(buf, offset);
  OF_CHECK_MSG(offset == buf.size(), "trailing bytes after tensor frame");
  return t;
}

void serialize_tensors(const std::vector<Tensor>& ts, Bytes& out) {
  std::size_t size = out.size() + sizeof(std::uint32_t);
  for (const auto& t : ts) size += serialized_size(t);
  out.reserve(size);
  append_pod<std::uint32_t>(out, static_cast<std::uint32_t>(ts.size()));
  for (const auto& t : ts) serialize_tensor(t, out);
}

Bytes serialize_tensors(const std::vector<Tensor>& ts) {
  Bytes out;
  serialize_tensors(ts, out);
  return out;
}

std::vector<Tensor> deserialize_tensors(ConstByteSpan buf) {
  std::vector<Tensor> ts;
  deserialize_tensors_into(buf, ts);
  return ts;
}

void deserialize_tensors_into(ConstByteSpan buf, std::vector<Tensor>& out) {
  std::size_t offset = 0;
  const auto count = read_pod<std::uint32_t>(buf, offset);
  OF_CHECK_MSG(count <= (buf.size() - offset) / sizeof(std::uint32_t),
               "tensor count " << count << " exceeds remaining frame — corrupt frame?");
  out.resize(count);
  std::array<std::size_t, 8> dims{};
  for (Tensor& t : out) {
    const std::uint32_t ndim = read_shape(buf, offset, dims);
    if (!std::equal(dims.begin(), dims.begin() + ndim, t.shape().begin(), t.shape().end()))
      t = Tensor(Shape(dims.begin(), dims.begin() + ndim));
    read_span(buf, offset, t.data(), t.numel());
  }
  OF_CHECK_MSG(offset == buf.size(), "trailing bytes after tensor list frame");
}

}  // namespace of::tensor
