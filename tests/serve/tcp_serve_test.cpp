// The TCP skin of the serving front door: real clients over real sockets —
// hello/accept dial-back handshake, admission rejections with reasons,
// multiple concurrent clients bit-exact against the single-device
// reference, a mis-shaped input dropped without taking the door down, and
// clean close in both directions.
#include "serve/tcp_serve.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "core/strategy.hpp"
#include "common/require.hpp"
#include "runtime/cluster.hpp"
#include "runtime/fabric.hpp"
#include "tensor_bits.hpp"

namespace de::serve {
namespace {

cnn::CnnModel mini() {
  return cnn::ModelBuilder("mini", 20, 20, 3)
      .conv_same(6, 3)
      .maxpool(2, 2)
      .conv_same(8, 3)
      .build();
}

std::vector<cnn::Tensor> random_inputs(const cnn::CnnModel& m, int n,
                                       Rng& rng) {
  std::vector<cnn::Tensor> inputs;
  for (int k = 0; k < n; ++k) {
    cnn::Tensor t(m.input_h(), m.input_w(), m.input_c());
    for (auto& v : t.data) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    inputs.push_back(std::move(t));
  }
  return inputs;
}

sim::RawStrategy equal_strategy(const cnn::CnnModel& m, int n_devices) {
  sim::RawStrategy strategy;
  strategy.volumes =
      cnn::volumes_from_boundaries({0, m.num_layers()}, m.num_layers());
  for (const auto& v : strategy.volumes) {
    strategy.cuts.push_back(
        core::equal_split(cnn::volume_out_height(m, v), n_devices).cuts);
  }
  return strategy;
}

/// A TCP fleet with its door open for business.
struct TcpHarness {
  int n_devices;
  cnn::CnnModel m = mini();
  std::vector<cnn::ConvWeights> w;
  runtime::ClusterFabric fabric;
  runtime::DataPlaneStats stats;
  std::vector<runtime::TenantModel> fleet_models;
  std::vector<TenantSpec> fleet;
  runtime::Supervisor providers;
  std::unique_ptr<StreamServer> server;
  std::unique_ptr<TcpServeDoor> door;

  explicit TcpHarness(int n_devices_, StreamServerOptions options = {})
      : n_devices(n_devices_) {
    Rng rng(29);
    w = runtime::random_weights(m, rng);
    fabric = runtime::make_fabric(n_devices, /*use_tcp=*/true);
    fleet_models = {{&m, &w}};
    fleet = {TenantSpec{&m, &w, equal_strategy(m, n_devices)}};
    providers = runtime::spawn_providers_multi(fabric, n_devices,
                                               fleet_models, stats);
    server = std::make_unique<StreamServer>(fabric.requester(), n_devices,
                                            fleet, stats, options);
    door = std::make_unique<TcpServeDoor>(*door_transport(), *server);
  }

  rpc::TcpTransport* door_transport() { return fabric.tcp_nodes.back().get(); }
  std::uint16_t door_port() { return door_transport()->port(); }

  ~TcpHarness() {
    door->stop();
    providers.join_all();
  }
};

TEST(TcpServe, HandshakeAndSingleClientBitExact) {
  TcpHarness h(2);
  TcpStreamClient client("127.0.0.1", h.door_port(), /*model_id=*/0);
  ASSERT_TRUE(client.ok());
  EXPECT_GE(client.stream(), 0);
  EXPECT_GT(client.window(), 0);

  Rng rng(37);
  const auto inputs = random_inputs(h.m, 5, rng);
  for (const auto& input : inputs) ASSERT_TRUE(client.submit(input));
  client.close();
  for (const auto& input : inputs) {
    auto out = client.receive();
    ASSERT_TRUE(out.has_value());
    expect_bitexact(*out, runtime::run_reference(h.m, h.w, input), "tcp client");
  }
  // Stream fully drained: the door says so.
  EXPECT_FALSE(client.receive().has_value());
}

TEST(TcpServe, RejectsUnknownModelAndOverAdmission) {
  StreamServerOptions options;
  options.max_streams = 1;
  TcpHarness h(2, options);

  TcpStreamClient bad("127.0.0.1", h.door_port(), /*model_id=*/9);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.reject_reason(), rpc::StreamRejectMsg::kUnknownModel);

  TcpStreamClient first("127.0.0.1", h.door_port(), /*model_id=*/0);
  ASSERT_TRUE(first.ok());
  TcpStreamClient second("127.0.0.1", h.door_port(), /*model_id=*/0);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.reject_reason(), rpc::StreamRejectMsg::kBusy);
}

TEST(TcpServe, ConcurrentClientsEachBitExact) {
  TcpHarness h(2);
  Rng rng(43);
  constexpr int kClients = 3;
  constexpr int kImages = 4;
  std::vector<std::vector<cnn::Tensor>> inputs;
  for (int c = 0; c < kClients; ++c) {
    inputs.push_back(random_inputs(h.m, kImages, rng));
  }
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&h, &inputs, c] {
      TcpStreamClient client("127.0.0.1", h.door_port(), /*model_id=*/0);
      ASSERT_TRUE(client.ok());
      for (const auto& input : inputs[static_cast<std::size_t>(c)]) {
        ASSERT_TRUE(client.submit(input));
        auto out = client.receive();
        ASSERT_TRUE(out.has_value());
        expect_bitexact(*out, runtime::run_reference(h.m, h.w, input),
                     "tcp client " + std::to_string(c));
      }
      client.close();
    });
  }
  for (auto& t : clients) t.join();
}

TEST(TcpServe, MisShapedInputIsDroppedAndTheDoorStaysUp) {
  TcpHarness h(2);
  Rng rng(47);
  TcpStreamClient bad("127.0.0.1", h.door_port(), /*model_id=*/0);
  ASSERT_TRUE(bad.ok());
  // The client cannot know the tenant's input shape; the door refuses the
  // frame at submit and drops it.
  ASSERT_TRUE(bad.submit(cnn::Tensor(1, 1, 1)));
  // A well-shaped image behind it on the same connection: once its output
  // is back, the door has handled the bad frame before it.
  const auto after = random_inputs(h.m, 1, rng);
  ASSERT_TRUE(bad.submit(after[0]));
  auto out = bad.receive();
  ASSERT_TRUE(out.has_value());
  expect_bitexact(*out, runtime::run_reference(h.m, h.w, after[0]),
               "image after the refused one");
  EXPECT_EQ(h.server->snapshot(bad.stream()).submitted, 1);
  EXPECT_FALSE(h.server->down());

  // Another client keeps serving bit-exact.
  TcpStreamClient good("127.0.0.1", h.door_port(), /*model_id=*/0);
  ASSERT_TRUE(good.ok());
  for (const auto& input : random_inputs(h.m, 3, rng)) {
    ASSERT_TRUE(good.submit(input));
    auto result = good.receive();
    ASSERT_TRUE(result.has_value());
    expect_bitexact(*result, runtime::run_reference(h.m, h.w, input),
                 "other client");
  }
  EXPECT_FALSE(h.server->down());
}

}  // namespace
}  // namespace de::serve
