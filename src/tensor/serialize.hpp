// Binary (de)serialization of tensors — the wire format shared by all
// communicators. Little-endian, self-describing:
//   u32 ndim | u64 dims[ndim] | f32 data[numel]
// plus helpers for packing arbitrary PODs into byte buffers, used by the
// compression payload formats and the TCP wire protocol.
//
// Readers are span-based: a `ConstByteSpan` view plus a cursor lets every
// decode stage walk a received frame in place, with no tail copies. The
// owning-`Bytes` overloads delegate to the span forms.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/aligned.hpp"
#include "common/check.hpp"
#include "tensor/span.hpp"
#include "tensor/tensor.hpp"

namespace of::tensor {

// 64-byte aligned (common/aligned.hpp): SIMD loops over frame bodies start
// from an aligned base whenever the in-frame offset is aligned.
using Bytes = AlignedBytes;

// --- low-level POD packing --------------------------------------------------
template <typename T>
void append_pod(Bytes& buf, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
  buf.insert(buf.end(), p, p + sizeof(T));
}

template <typename T>
T read_pod(ConstByteSpan buf, std::size_t& offset) {
  static_assert(std::is_trivially_copyable_v<T>);
  OF_CHECK_MSG(offset + sizeof(T) <= buf.size(),
               "buffer underrun reading " << sizeof(T) << " bytes at offset " << offset);
  T value;
  std::memcpy(&value, buf.data() + offset, sizeof(T));
  offset += sizeof(T);
  return value;
}

template <typename T>
void append_span(Bytes& buf, const T* data, std::size_t count) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto* p = reinterpret_cast<const std::uint8_t*>(data);
  buf.insert(buf.end(), p, p + count * sizeof(T));
}

inline void append_span(Bytes& buf, ConstByteSpan bytes) {
  buf.insert(buf.end(), bytes.begin(), bytes.end());
}

inline void append_span(Bytes& buf, ConstFloatSpan floats) {
  append_span(buf, floats.data(), floats.size());
}

template <typename T>
void read_span(ConstByteSpan buf, std::size_t& offset, T* out, std::size_t count) {
  static_assert(std::is_trivially_copyable_v<T>);
  OF_CHECK_MSG(count <= (buf.size() - std::min(offset, buf.size())) / sizeof(T),
               "buffer underrun reading span of " << count << " elements at offset " << offset);
  if (count == 0) return;  // `out` may be null (an empty vector's data())
  std::memcpy(out, buf.data() + offset, count * sizeof(T));
  offset += count * sizeof(T);
}

// --- scale / accumulate kernels over wire views ------------------------------
// The zero-copy pipeline's workhorses, dispatched through of::simd. The byte
// side may sit at any (unaligned) frame offset, and all carry the scale in
// double: weight scales are doubles end to end, and a premature narrowing to
// float loses the low bits of per-client sample weights.

// out += f32-encode( src[i] * scale ), appended to the buffer. Returns true
// iff every source element was finite — the encode-admission screen fused
// into the store (callers reject the update when it comes back false).
bool append_scaled_span(Bytes& out, ConstFloatSpan src, double scale);

// Same store in the fp16 wire representation (RTNE): 2 bytes per element.
bool append_scaled_f16_span(Bytes& out, ConstFloatSpan src, double scale);

// acc[i] += alpha * f32_at(src, 4*i) for the whole span; src.size() must be
// exactly 4 * acc.size().
void add_scaled_from_bytes(ConstByteSpan src, double alpha, FloatSpan acc);

// fp16 source variant: acc[i] += alpha * f32(f16_at(src, 2*i)); src.size()
// must be exactly 2 * acc.size().
void add_scaled_from_f16_bytes(ConstByteSpan src, double alpha, FloatSpan acc);

// --- tensor wire format ------------------------------------------------------
void serialize_tensor(const Tensor& t, Bytes& out);
Bytes serialize_tensor(const Tensor& t);
Tensor deserialize_tensor(ConstByteSpan buf, std::size_t& offset);
Tensor deserialize_tensor(ConstByteSpan buf);

// Multiple tensors in one frame (a model's parameter list). The appending
// form reserves the exact size first, so it writes the frame in one pass
// after whatever prefix `out` already holds (a frame kind byte, say).
void serialize_tensors(const std::vector<Tensor>& ts, Bytes& out);
Bytes serialize_tensors(const std::vector<Tensor>& ts);
std::vector<Tensor> deserialize_tensors(ConstByteSpan buf);
// Decode into `out`, reusing each tensor whose shape already matches, so a
// model received every round allocates nothing once warm (deserialize_tensors
// is this into a fresh vector). On a throw `out` is left partly written.
void deserialize_tensors_into(ConstByteSpan buf, std::vector<Tensor>& out);

}  // namespace of::tensor
