// Micro-benchmarks (google-benchmark): the hot paths under the planners —
// strategy simulation, Cp scoring, DDPG training steps, GEMM, LC-PSS.
#include <benchmark/benchmark.h>

#include "cnn/exec_engine.hpp"
#include "cnn/model_zoo.hpp"
#include "core/cost.hpp"
#include "core/lcpss.hpp"
#include "core/split_env.hpp"
#include "device/device.hpp"
#include "experiments/scenarios.hpp"
#include "nn/matrix.hpp"
#include "rl/ddpg.hpp"

namespace {

using namespace de;

const experiments::BuiltScenario& db50() {
  static const auto built = experiments::build(experiments::group_DB(50.0));
  return built;
}

void BM_ExecuteStrategy(benchmark::State& state) {
  const auto& built = db50();
  sim::RawStrategy strategy;
  strategy.volumes = cnn::volumes_from_boundaries({0, 10, 14, 18}, 18);
  for (const auto& v : strategy.volumes) {
    strategy.cuts.push_back(
        core::equal_split(cnn::volume_out_height(built.model, v), 4).cuts);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::execute_strategy(
        built.model, strategy, built.latency, built.network));
  }
}
BENCHMARK(BM_ExecuteStrategy);

void BM_CpScore(benchmark::State& state) {
  const auto model = cnn::vgg16();
  core::RandomSplitSet splits(100, 4, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::mean_cp_score(model, {0, 10, 14, 18}, splits, 0.25));
  }
}
BENCHMARK(BM_CpScore);

void BM_Lcpss(benchmark::State& state) {
  const auto model = cnn::vgg16();
  core::LcpssConfig config;
  config.n_random_splits = static_cast<int>(state.range(0));
  config.parallel = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_lcpss(model, config));
  }
}
BENCHMARK(BM_Lcpss)->Arg(25)->Arg(100);

void BM_DdpgTrainStep(benchmark::State& state) {
  Rng rng(1);
  rl::DdpgConfig config;
  config.state_dim = 8;
  config.action_dim = 3;
  config.actor_hidden = {96, 64};
  config.critic_hidden = {128, 96, 48};
  config.batch_size = 32;
  rl::Ddpg agent(config, rng);
  rl::ReplayBuffer buffer(4096, 8, 3);
  for (int i = 0; i < 512; ++i) {
    rl::Transition t;
    t.state.assign(8, static_cast<float>(rng.uniform()));
    t.action.assign(3, static_cast<float>(rng.uniform(-1.0, 1.0)));
    t.reward = static_cast<float>(rng.uniform());
    t.next_state.assign(8, static_cast<float>(rng.uniform()));
    t.terminal = (i % 4 == 0);
    buffer.push(std::move(t));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.train_step(buffer, rng));
  }
}
BENCHMARK(BM_DdpgTrainStep);

void BM_Gemm(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  nn::Matrix a(n, n), b(n, n), out;
  for (std::size_t i = 0; i < a.size(); ++i) {
    a.data()[i] = static_cast<float>(rng.uniform());
    b.data()[i] = static_cast<float>(rng.uniform());
  }
  for (auto _ : state) {
    nn::gemm(a, b, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(2 * n * n * n));
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

// The two conv engines head to head on one mid-VGG row band (same arithmetic
// bit for bit; bench/kernel_scaling has the full scaling story).
void BM_ConvRows(benchmark::State& state, cnn::ExecEngine engine) {
  Rng rng(5);
  const auto layer = cnn::LayerConfig::conv(56, 56, 128, 128, 3, 1, 1);
  cnn::Tensor input(layer.in_h, layer.in_w, layer.in_c);
  for (auto& v : input.data) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  const auto weights = cnn::ConvWeights::random(layer, rng);
  const cnn::RowInterval rows{0, 8};
  // As the data plane runs: the weights pack on their first call only.
  const cnn::ExecContext ctx{engine, nullptr};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cnn::conv_forward_rows(layer, input, 0, rows, weights, ctx));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(layer.ops_for_rows(rows.size())));
}
void BM_ConvRowsReference(benchmark::State& state) {
  BM_ConvRows(state, cnn::ExecEngine::kReference);
}
void BM_ConvRowsFast(benchmark::State& state) {
  BM_ConvRows(state, cnn::ExecEngine::kFast);
}
BENCHMARK(BM_ConvRowsReference);
BENCHMARK(BM_ConvRowsFast);

void BM_VslRequiredInput(benchmark::State& state) {
  const auto model = cnn::vgg16();
  const auto layers = model.slice(0, 14);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cnn::required_input_rows(layers, cnn::RowInterval{3, 9}));
  }
}
BENCHMARK(BM_VslRequiredInput);

}  // namespace

BENCHMARK_MAIN();
