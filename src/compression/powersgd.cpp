#include "compression/powersgd.hpp"

#include <cmath>

namespace of::compression {
namespace {

// Modified Gram–Schmidt, in place on the columns of a (rows × r) matrix.
// Projections run twice ("twice is enough", Giraud et al.) and columns that
// collapse below a *relative* threshold are zeroed, not normalized: blowing
// float cancellation noise up to a unit vector would silently break
// orthogonality whenever the input is rank-deficient.
void orthonormalize_columns(Tensor& m) {
  const std::size_t rows = m.size(0), r = m.size(1);
  for (std::size_t j = 0; j < r; ++j) {
    double orig_norm2 = 0.0;
    for (std::size_t i = 0; i < rows; ++i) orig_norm2 += m(i, j) * m(i, j);
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t k = 0; k < j; ++k) {
        double dot = 0.0;
        for (std::size_t i = 0; i < rows; ++i) dot += m(i, k) * m(i, j);
        for (std::size_t i = 0; i < rows; ++i)
          m(i, j) -= static_cast<float>(dot) * m(i, k);
      }
    }
    double norm2 = 0.0;
    for (std::size_t i = 0; i < rows; ++i) norm2 += m(i, j) * m(i, j);
    if (norm2 <= 1e-12 * orig_norm2 || norm2 == 0.0) {
      for (std::size_t i = 0; i < rows; ++i) m(i, j) = 0.0f;
      continue;
    }
    const float inv = 1.0f / std::sqrt(static_cast<float>(norm2));
    for (std::size_t i = 0; i < rows; ++i) m(i, j) *= inv;
  }
}

void matrix_shape(std::size_t n, std::size_t& rows, std::size_t& cols) {
  cols = static_cast<std::size_t>(std::ceil(std::sqrt(static_cast<double>(n))));
  cols = std::max<std::size_t>(1, cols);
  rows = (n + cols - 1) / cols;
}

}  // namespace

PowerSGD::PowerSGD(std::size_t rank, std::uint64_t seed) : rank_(rank), rng_(seed) {
  OF_CHECK_MSG(rank >= 1, "PowerSGD rank must be >= 1");
}

void PowerSGD::compress(ConstFloatSpan t, Compressed& c) {
  const std::size_t n = t.size();
  std::size_t rows = 0, cols = 0;
  matrix_shape(n, rows, cols);
  const std::size_t r = std::min({rank_, rows, cols});

  // Zero-padded matrix view of the flat update.
  Tensor m({rows, cols});
  std::copy_n(t.data(), n, m.data());

  if (q_state_.empty() || state_numel_ != n ||
      q_state_.size(1) != r) {  // (re)initialize the warm-start factor
    q_state_ = Tensor::randn({cols, r}, rng_);
    orthonormalize_columns(q_state_);
    state_numel_ = n;
  }

  Tensor p = m.matmul(q_state_);  // rows × r
  orthonormalize_columns(p);
  Tensor q = m.matmul_tn(p);  // cols × r
  q_state_ = q;

  c.codec = "PowerSGD";
  c.original_numel = n;
  c.payload.clear();
  tensor::append_pod<std::uint64_t>(c.payload, rows);
  tensor::append_pod<std::uint64_t>(c.payload, cols);
  tensor::append_pod<std::uint64_t>(c.payload, r);
  tensor::append_span(c.payload, p.data(), p.numel());
  tensor::append_span(c.payload, q.data(), q.numel());
}

void PowerSGD::decompress(const CompressedView& c, FloatSpan out) {
  OF_CHECK_MSG(out.size() == c.original_numel, "PowerSGD decompress size mismatch");
  std::size_t off = 0;
  const auto rows = static_cast<std::size_t>(tensor::read_pod<std::uint64_t>(c.payload, off));
  const auto cols = static_cast<std::size_t>(tensor::read_pod<std::uint64_t>(c.payload, off));
  const auto r = static_cast<std::size_t>(tensor::read_pod<std::uint64_t>(c.payload, off));
  Tensor p({rows, r}), q({cols, r});
  tensor::read_span(c.payload, off, p.data(), p.numel());
  tensor::read_span(c.payload, off, q.data(), q.numel());
  OF_CHECK_MSG(off == c.payload.size(), "PowerSGD payload has trailing bytes");
  Tensor m = p.matmul_nt(q);  // rows × cols
  OF_CHECK_MSG(c.original_numel <= m.numel(), "PowerSGD shape mismatch");
  std::copy_n(m.data(), c.original_numel, out.data());
}

}  // namespace of::compression
