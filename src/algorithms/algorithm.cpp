#include "algorithms/algorithm.hpp"

#include "common/check.hpp"

namespace of::algorithms {

std::vector<Parameter*> Algorithm::shared_parameters(Model& m) const {
  std::vector<Parameter*> out;
  for (auto* p : m.parameters())
    if (shares_parameter(*p)) out.push_back(p);
  return out;
}

std::vector<Tensor> Algorithm::shared_values(Model& m) const {
  std::vector<Tensor> out;
  for (auto* p : shared_parameters(m)) out.push_back(p->value);
  return out;
}

void Algorithm::set_shared_values(Model& m, const std::vector<Tensor>& values) const {
  auto params = shared_parameters(m);
  OF_CHECK_MSG(params.size() == values.size(),
               name() << ": global payload has " << values.size() << " tensors, model has "
                      << params.size() << " shared parameters");
  for (std::size_t i = 0; i < params.size(); ++i) {
    OF_CHECK_MSG(values[i].same_shape(params[i]->value),
                 name() << ": shape mismatch applying global to " << params[i]->name);
    params[i]->value = values[i];
  }
}

void Algorithm::apply_global(TrainContext& ctx, const std::vector<Tensor>& global) {
  set_shared_values(*ctx.model, global);
}

TrainStats Algorithm::run_sgd_epochs(TrainContext& ctx,
                                     const std::function<void(TrainContext&)>& pre_step) {
  OF_CHECK_MSG(ctx.model && ctx.optimizer && ctx.loader, "incomplete TrainContext");
  TrainStats stats;
  ctx.model->set_training(true);
  // Reused across steps, like the layers' own buffers: a steady-state step
  // allocates nothing.
  data::Batch batch;
  Tensor grad;
  for (std::size_t epoch = 0; epoch < ctx.local_epochs; ++epoch) {
    if (ctx.scheduler) ctx.scheduler->on_epoch(ctx.epochs_done);
    for (std::size_t b = 0; b < ctx.loader->num_batches(); ++b) {
      ctx.loader->batch_into(b, batch);
      ctx.model->zero_grad();
      const Tensor& logits = ctx.model->forward(batch.x);
      const float loss = nn::softmax_cross_entropy_into(logits, batch.y, grad);
      ctx.model->backward(grad);
      if (pre_step) pre_step(ctx);
      ctx.optimizer->step();
      stats.loss_sum += loss;
      ++stats.steps;
      stats.samples += batch.size();
    }
    ctx.loader->reshuffle();
    ++ctx.epochs_done;
  }
  return stats;
}

TrainStats Algorithm::local_train(TrainContext& ctx) { return run_sgd_epochs(ctx); }

std::vector<Tensor> Algorithm::client_update(TrainContext& ctx) {
  return shared_values(*ctx.model);
}

std::vector<Tensor> Algorithm::initial_global(Model& reference) {
  return shared_values(reference);
}

std::vector<Tensor> Algorithm::server_update(ServerState& state,
                                             const std::vector<Tensor>& mean_update) {
  state.global = mean_update;
  return state.global;
}

float evaluate_accuracy(Model& model, const data::InMemoryDataset& test,
                        std::size_t batch_size) {
  model.set_training(false);
  std::size_t correct = 0;
  std::vector<std::size_t> idx;
  data::Batch batch;
  for (std::size_t begin = 0; begin < test.size(); begin += batch_size) {
    const std::size_t end = std::min(begin + batch_size, test.size());
    idx.resize(end - begin);
    for (std::size_t i = begin; i < end; ++i) idx[i - begin] = i;
    test.gather_into(idx.data(), idx.size(), batch);
    const Tensor& logits = model.forward(batch.x);
    const auto preds = logits.argmax_rows();
    for (std::size_t i = 0; i < preds.size(); ++i)
      if (preds[i] == batch.y[i]) ++correct;
  }
  model.set_training(true);
  return test.size() ? static_cast<float>(correct) / static_cast<float>(test.size()) : 0.0f;
}

}  // namespace of::algorithms
