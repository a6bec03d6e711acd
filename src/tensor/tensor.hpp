// Dense float32 tensor — the PyTorch-tensor stand-in for OmniFed-C++.
//
// Deliberately minimal: contiguous row-major storage, value semantics,
// shape-checked arithmetic, and exactly the operations the nn/ and
// compression/ layers need. No views, no strides, no autograd here —
// gradients are computed by hand-derived module backward passes in of::nn.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "tensor/rng.hpp"
#include "tensor/span.hpp"

namespace of::tensor {

using Shape = std::vector<std::size_t>;

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape);
  Tensor(Shape shape, float fill);
  Tensor(Shape shape, std::vector<float> data);

  // --- factories -----------------------------------------------------------
  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor ones(Shape shape) { return Tensor(std::move(shape), 1.0f); }
  static Tensor full(Shape shape, float v) { return Tensor(std::move(shape), v); }
  static Tensor randn(Shape shape, Rng& rng, float mean = 0.0f, float stddev = 1.0f);
  static Tensor uniform(Shape shape, Rng& rng, float lo = 0.0f, float hi = 1.0f);
  static Tensor arange(std::size_t n);
  static Tensor from_vector(std::vector<float> v);

  // --- shape ---------------------------------------------------------------
  const Shape& shape() const noexcept { return shape_; }
  std::size_t ndim() const noexcept { return shape_.size(); }
  std::size_t size(std::size_t dim) const;
  std::size_t numel() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }
  bool same_shape(const Tensor& other) const noexcept { return shape_ == other.shape_; }
  Tensor reshape(Shape new_shape) const;
  // Reshape in place to (rows, cols), reusing the storage: no allocation
  // once the capacity suffices. Element values afterwards are unspecified,
  // so the caller must write every element before reading one.
  Tensor& resize_(std::size_t rows, std::size_t cols);
  // Same, to other's shape.
  Tensor& resize_like_(const Tensor& other);
  Tensor flatten() const { return reshape({numel()}); }

  // --- element access ------------------------------------------------------
  float* data() noexcept { return data_.data(); }
  const float* data() const noexcept { return data_.data(); }
  std::vector<float>& vec() noexcept { return data_; }
  const std::vector<float>& vec() const noexcept { return data_; }
  FloatSpan span() noexcept { return {data_.data(), data_.size()}; }
  ConstFloatSpan span() const noexcept { return {data_.data(), data_.size()}; }
  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }
  float& at(std::size_t i);
  float at(std::size_t i) const;
  // 2-D accessors (checked in debug builds only — hot path).
  float& operator()(std::size_t r, std::size_t c) {
    OF_ASSERT(ndim() == 2 && r < shape_[0] && c < shape_[1]);
    return data_[r * shape_[1] + c];
  }
  float operator()(std::size_t r, std::size_t c) const {
    OF_ASSERT(ndim() == 2 && r < shape_[0] && c < shape_[1]);
    return data_[r * shape_[1] + c];
  }

  // --- in-place ops (return *this for chaining) ----------------------------
  Tensor& fill_(float v) noexcept;
  Tensor& zero_() noexcept { return fill_(0.0f); }
  Tensor& add_(const Tensor& other);
  Tensor& sub_(const Tensor& other);
  Tensor& mul_(const Tensor& other);
  Tensor& div_(const Tensor& other);
  Tensor& add_scalar_(float v) noexcept;
  Tensor& scale_(float v) noexcept;
  // this += alpha * other (axpy). Workhorse of every optimizer/aggregator.
  Tensor& add_scaled_(const Tensor& other, float alpha);
  Tensor& clamp_(float lo, float hi) noexcept;
  Tensor& abs_() noexcept;
  Tensor& sign_() noexcept;

  // --- out-of-place arithmetic ---------------------------------------------
  Tensor operator+(const Tensor& rhs) const;
  Tensor operator-(const Tensor& rhs) const;
  Tensor operator*(const Tensor& rhs) const;  // elementwise
  Tensor operator*(float s) const;
  Tensor operator+(float s) const;
  Tensor operator-() const;

  // --- reductions ----------------------------------------------------------
  float sum() const noexcept;
  float mean() const;
  float min() const;
  float max() const;
  float l2_norm() const noexcept;
  float l2_norm_squared() const noexcept;
  float dot(const Tensor& other) const;
  std::size_t argmax() const;
  // Row-wise argmax for a 2-D tensor (predictions from logits).
  std::vector<std::size_t> argmax_rows() const;

  // --- linear algebra ------------------------------------------------------
  // (m,k) x (k,n) -> (m,n)
  Tensor matmul(const Tensor& rhs) const;
  // thisᵀ · rhs: (k,m)ᵀ x (k,n) -> (m,n), reading this in place.
  Tensor matmul_tn(const Tensor& rhs) const;
  // this · rhsᵀ: (m,k) x (n,k)ᵀ -> (m,n), reading rhs in place.
  Tensor matmul_nt(const Tensor& rhs) const;

  // --- misc ----------------------------------------------------------------
  // Copy a row of a 2-D tensor into a 1-D tensor.
  Tensor row(std::size_t r) const;
  void set_row(std::size_t r, const Tensor& v);
  bool allclose(const Tensor& other, float atol = 1e-5f, float rtol = 1e-5f) const;
  std::string shape_string() const;
  std::string to_string(std::size_t max_elems = 16) const;

 private:
  Shape shape_;
  std::vector<float> data_;
};

Tensor operator*(float s, const Tensor& t);

// Which operand of a product is read transposed (in place, never copied).
enum class Transpose : std::uint8_t { None, Lhs, Rhs };

// out = op(a) · op(b), plus bias (one value per column) when given. Resizes
// out to (m, n) reusing its storage, and writes every element, so nn layers
// call it on their reused buffers. Each element is the simd::gemm chain:
// the bytes do not depend on the SIMD table or the thread count.
void matmul_into(Tensor& out, const Tensor& a, const Tensor& b,
                 Transpose t = Transpose::None, const Tensor* bias = nullptr);
// acc += op(a) · op(b), acc already (m, n): each element becomes
// acc + (Σ), the sum formed first. The same bytes as adding a separately
// computed product, without the temporary.
void matmul_acc(Tensor& acc, const Tensor& a, const Tensor& b, Transpose t = Transpose::None);

// Total number of elements implied by a shape.
std::size_t shape_numel(const Shape& shape);

// --- flat parameter-vector helpers used by algorithms & compression --------
// Concatenate a list of tensors into a single flat vector (the "model
// update" that crosses the wire) and scatter it back.
Tensor flatten_all(const std::vector<Tensor>& tensors);
void unflatten_into(const Tensor& flat, std::vector<Tensor>& out);

}  // namespace of::tensor
