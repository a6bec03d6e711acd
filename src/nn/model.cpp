#include "nn/model.hpp"

namespace of::nn {

Model::Model(std::unique_ptr<Sequential> body, std::size_t feature_boundary)
    : body_(std::move(body)), feature_boundary_(feature_boundary) {
  OF_CHECK_MSG(feature_boundary_ <= body_->size(),
               "feature boundary " << feature_boundary_ << " beyond module count "
                                   << body_->size());
}

void Model::build_caches() {
  if (caches_built_) return;
  params_cache_.clear();
  body_->collect_parameters(params_cache_);
  buffers_cache_.clear();
  body_->collect_buffers(buffers_cache_);
  caches_built_ = true;
}

const Tensor& Model::forward(const Tensor& x) {
  OF_CHECK_MSG(valid(), "forward on empty Model");
  return body_->forward(x);
}

const Tensor& Model::backward(const Tensor& grad_out) { return body_->backward(grad_out); }

const Tensor& Model::features(const Tensor& x) {
  OF_CHECK_MSG(valid(), "features on empty Model");
  const Tensor* h = &x;
  for (std::size_t i = 0; i < feature_boundary_; ++i) h = &body_->at(i).forward(*h);
  return *h;
}

const Tensor& Model::features_backward(const Tensor& grad_features) {
  const Tensor* g = &grad_features;
  for (std::size_t i = feature_boundary_; i-- > 0;) g = &body_->at(i).backward(*g);
  return *g;
}

const std::vector<Parameter*>& Model::parameters() {
  build_caches();
  return params_cache_;
}

std::vector<Tensor> Model::parameter_values() {
  std::vector<Tensor> out;
  out.reserve(parameters().size());
  for (auto* p : parameters()) out.push_back(p->value);
  return out;
}

void Model::set_parameter_values(const std::vector<Tensor>& values) {
  auto& ps = parameters();
  OF_CHECK_MSG(values.size() == ps.size(),
               "parameter count mismatch: " << values.size() << " vs " << ps.size());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    OF_CHECK_MSG(values[i].same_shape(ps[i]->value),
                 "parameter " << ps[i]->name << " shape mismatch");
    ps[i]->value = values[i];
  }
}

const std::vector<Tensor*>& Model::buffers() {
  build_caches();
  return buffers_cache_;
}

void Model::zero_grad() {
  for (auto* p : parameters()) p->grad.zero_();
}

std::size_t Model::num_scalars() {
  std::size_t n = 0;
  for (auto* p : parameters()) n += p->value.numel();
  return n;
}

Tensor Model::flat_parameters() {
  std::vector<Tensor> vals;
  vals.reserve(parameters().size());
  for (auto* p : parameters()) vals.push_back(p->value);
  return tensor::flatten_all(vals);
}

void Model::set_flat_parameters(const Tensor& flat) {
  std::size_t off = 0;
  for (auto* p : parameters()) {
    OF_CHECK_MSG(off + p->value.numel() <= flat.numel(), "flat parameter vector too short");
    std::copy_n(flat.data() + off, p->value.numel(), p->value.data());
    off += p->value.numel();
  }
  OF_CHECK_MSG(off == flat.numel(), "flat parameter vector too long");
}

Tensor Model::flat_gradients() {
  std::vector<Tensor> grads;
  grads.reserve(parameters().size());
  for (auto* p : parameters()) grads.push_back(p->grad);
  return tensor::flatten_all(grads);
}

void Model::set_flat_gradients(const Tensor& flat) {
  std::size_t off = 0;
  for (auto* p : parameters()) {
    OF_CHECK_MSG(off + p->grad.numel() <= flat.numel(), "flat gradient vector too short");
    std::copy_n(flat.data() + off, p->grad.numel(), p->grad.data());
    off += p->grad.numel();
  }
  OF_CHECK_MSG(off == flat.numel(), "flat gradient vector too long");
}

void Model::set_training(bool training) { body_->set_training(training); }

Model Model::clone() const {
  OF_CHECK_MSG(maker_ != nullptr, "Model::clone requires a maker (set by the zoo factory)");
  Model copy = maker_();
  // const_cast is safe: parameter_values()/buffers() only build caches.
  auto& self = const_cast<Model&>(*this);
  copy.set_parameter_values(self.parameter_values());
  const auto& src_bufs = self.buffers();
  const auto& dst_bufs = copy.buffers();
  OF_CHECK(src_bufs.size() == dst_bufs.size());
  for (std::size_t i = 0; i < src_bufs.size(); ++i) *dst_bufs[i] = *src_bufs[i];
  return copy;
}

}  // namespace of::nn
