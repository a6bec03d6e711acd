// Table 3a: test accuracy of the four models trained under differential
// privacy with ε ∈ {1, 10}, δ = 1e-5 (Gaussian mechanism on clipped
// updates), FedAvg aggregation via delta encoding (the mechanism clips
// and noises *updates*, not raw parameters — clipping a whole parameter
// vector to C destroys the model regardless of epsilon).
//
// Shape expectation vs. the paper: ε=10 beats ε=1 on every model (less
// noise for the same rounds), and the easy task (ResNet18/CIFAR10 stand-in)
// tolerates DP noise far better than the many-class tasks — exactly the
// pattern of the paper's Table 3a.
#include <cstdlib>

#include "bench_common.hpp"

int main() {
  const char* env = std::getenv("OMNIFED_BENCH_ROUNDS");
  const std::size_t rounds = env ? static_cast<std::size_t>(std::atoi(env)) : 15;
  // OMNIFED_BENCH_SEED overrides the experiment seed, for multi-seed reruns.
  const char* seed_env = std::getenv("OMNIFED_BENCH_SEED");
  const auto pairings = of::bench::paper_pairings();
  of::bench::print_header("Table 3a — accuracy under differential privacy (final acc %)",
                          "Table 3a");
  std::printf("(FedAvg via delta encoding, Gaussian mechanism, clip C=5, delta=1e-5, %zu rounds)\n\n", rounds);
  of::bench::print_row_header(pairings, "epsilon");
  for (const double eps : {1.0, 10.0}) {
    std::printf("eps=%-14.0f", eps);
    std::fflush(stdout);
    for (const auto& p : pairings) {
      auto cfg = of::bench::experiment_config(p.model, p.dataset, "FedAvgDelta", rounds);
      if (seed_env) cfg.set_path("seed", of::config::ConfigNode::integer(std::atoll(seed_env)));
      using of::config::ConfigNode;
      cfg.set_path("privacy._target_",
                   ConfigNode::string("src.omnifed.privacy.DifferentialPrivacy"));
      cfg.set_path("privacy.epsilon", ConfigNode::floating(eps));
      cfg.set_path("privacy.delta", ConfigNode::floating(1e-5));
      cfg.set_path("privacy.clip_norm", ConfigNode::floating(5.0));
      of::core::Engine engine(cfg);
      const auto result = engine.run();
      std::printf(" | %11.2f%%", result.final_accuracy * 100.0f);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  // Reference row: no privacy, same budget.
  std::printf("%-18s", "no privacy");
  for (const auto& p : pairings) {
    auto cfg = of::bench::experiment_config(p.model, p.dataset, "FedAvgDelta", rounds);
    if (seed_env) cfg.set_path("seed", of::config::ConfigNode::integer(std::atoll(seed_env)));
    of::core::Engine engine(cfg);
    std::printf(" | %11.2f%%", engine.run().final_accuracy * 100.0f);
    std::fflush(stdout);
  }
  std::printf("\n");
  return 0;
}
