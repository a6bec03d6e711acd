// Algorithm — OmniFed's FL training-logic plugin (paper §3.3).
//
// An Algorithm owns the learning strategy through lifecycle hooks; the Node
// owns resources (model, data, optimizer) and the topology owns transport.
// One round follows the same protocol on every topology:
//
//   1. the global payload G (a list of tensors) reaches every trainer
//      → apply_global(ctx, G)
//   2. local_train(ctx) runs E local epochs
//   3. client_update(ctx) produces the client payload P_i
//   4. transport computes the weighted mean P̄ of all payloads (star
//      gather, ring all-reduce, homomorphic sum, …)
//   5. server_update(state, P̄) produces the next global payload — run on
//      the aggregator for centralized/hierarchical topologies and
//      replicated deterministically on every node for decentralized ones
//
// Every built-in algorithm is expressed so that step 4 is a plain weighted
// mean (deltas, taus, and control variates ride inside the payload); that
// single property is what lets compression, DP, HE, and SA compose with
// any algorithm and any topology without code changes.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "config/node.hpp"
#include "config/registry.hpp"
#include "data/loader.hpp"
#include "nn/loss.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"

namespace of::algorithms {

using nn::Model;
using nn::Parameter;
using tensor::Rng;
using tensor::Tensor;

struct TrainStats {
  double loss_sum = 0.0;
  std::size_t steps = 0;
  std::size_t samples = 0;

  double mean_loss() const noexcept {
    return steps ? loss_sum / static_cast<double>(steps) : 0.0;
  }
};

// Everything a trainer-side hook may touch. Owned by the Node.
struct TrainContext {
  Model* model = nullptr;
  nn::Optimizer* optimizer = nullptr;
  data::DataLoader* loader = nullptr;
  int client_id = 0;
  int num_clients = 1;
  std::size_t local_epochs = 1;
  std::size_t round = 0;
  std::size_t epochs_done = 0;  // cumulative, drives the LR scheduler
  nn::LRScheduler* scheduler = nullptr;
  Rng* rng = nullptr;
  config::ConfigNode params;  // the algorithm: section of the config

  // Algorithm-private state. Cleared between runs, never serialized.
  std::map<std::string, std::vector<Tensor>> state;
  std::map<std::string, double> scalars;
  Model prev_model;  // Moon: previous local model
  Model aux_model;   // Moon: global snapshot / Ditto: personal model
  // Algorithm-owned optimizer (DiLoCo's inner AdamW replaces the Node's SGD).
  std::unique_ptr<nn::Optimizer> own_optimizer;
};

// Aggregator-side state, replicated on every node for decentralized runs.
struct ServerState {
  std::vector<Tensor> global;  // current global payload
  std::map<std::string, std::vector<Tensor>> buffers;
  config::ConfigNode params;
  std::size_t round = 0;
};

class Algorithm {
 public:
  Algorithm() = default;
  Algorithm(const Algorithm&) = delete;
  Algorithm& operator=(const Algorithm&) = delete;
  virtual ~Algorithm() = default;

  virtual std::string name() const = 0;

  // --- trainer-side lifecycle hooks (override what you need) --------------
  virtual void on_train_start(TrainContext& ctx) { (void)ctx; }
  virtual void on_round_start(TrainContext& ctx) { (void)ctx; }
  virtual void apply_global(TrainContext& ctx, const std::vector<Tensor>& global);
  virtual TrainStats local_train(TrainContext& ctx);
  virtual std::vector<Tensor> client_update(TrainContext& ctx);
  virtual void on_round_end(TrainContext& ctx) { (void)ctx; }

  // --- aggregator-side -------------------------------------------------------
  // The payload broadcast before round 0, derived from a reference model.
  virtual std::vector<Tensor> initial_global(Model& reference);
  // Consume the weighted-mean payload, produce the next global payload.
  virtual std::vector<Tensor> server_update(ServerState& state,
                                            const std::vector<Tensor>& mean_update);

  // --- policy -----------------------------------------------------------------
  // Parameter filter: FedBN keeps BatchNorm local, FedPer keeps the head.
  virtual bool shares_parameter(const Parameter& p) const {
    (void)p;
    return true;
  }
  // Model used for accuracy evaluation (Ditto evaluates its personal model).
  virtual Model* eval_model(TrainContext& ctx) { return ctx.model; }
  // The parameters shares_parameter keeps, in deterministic model order.
  std::vector<Parameter*> shared_parameters(Model& m) const;

 protected:
  // Shared-parameter values and assignment, in the same order.
  std::vector<Tensor> shared_values(Model& m) const;
  void set_shared_values(Model& m, const std::vector<Tensor>& values) const;

  // Default SGD inner loop; `pre_step` runs between backward and
  // optimizer.step() so subclasses can adjust gradients (FedProx's proximal
  // term, Scaffold's control variates, FedDyn's linear correction).
  TrainStats run_sgd_epochs(TrainContext& ctx,
                            const std::function<void(TrainContext&)>& pre_step = nullptr);
};

// Evaluate top-1 accuracy of a model over a dataset (eval mode, batched).
// Each row's logits depend only on that row in eval mode, so the accuracy
// does not depend on batch_size; a model's layer buffers grow to it.
float evaluate_accuracy(Model& model, const data::InMemoryDataset& test,
                        std::size_t batch_size = 256);

using AlgorithmRegistry = config::Registry<Algorithm>;
AlgorithmRegistry& algorithm_registry();
std::unique_ptr<Algorithm> make_algorithm(const config::ConfigNode& cfg);
std::unique_ptr<Algorithm> make_algorithm(const std::string& target_name);
std::vector<std::string> algorithm_names();

}  // namespace of::algorithms
