// Live ops plane over a real stream: the admin endpoint must expose
// well-formed /metrics, /healthz, /streams and /trace/dump while
// serve_stream is in flight, the routes must come down at teardown, and
// the front door (StreamServer) must serve its own route set.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "cnn/model.hpp"
#include "obs/admin.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "runtime/cluster.hpp"
#include "runtime/fabric.hpp"
#include "runtime/serve.hpp"
#include "serve/stream_server.hpp"

namespace de {
namespace {

cnn::CnnModel tiny_model() {
  return cnn::ModelBuilder("tiny", 24, 24, 3)
      .conv_same(8, 3)
      .maxpool(2, 2)
      .conv_same(12, 3)
      .build();
}

sim::RawStrategy even_strategy(const cnn::CnnModel& m, int n_devices) {
  sim::RawStrategy strategy;
  strategy.volumes =
      cnn::volumes_from_boundaries({0, m.num_layers()}, m.num_layers());
  const int h = cnn::volume_out_height(m, strategy.volumes[0]);
  std::vector<int> cuts{0};
  for (int j = 1; j < n_devices; ++j) cuts.push_back(j * h / n_devices);
  cuts.push_back(h);
  strategy.cuts.push_back(std::move(cuts));
  return strategy;
}

std::vector<cnn::Tensor> random_images(const cnn::CnnModel& m, int n,
                                       Rng& rng) {
  std::vector<cnn::Tensor> images;
  for (int k = 0; k < n; ++k) {
    cnn::Tensor t(m.input_h(), m.input_w(), m.input_c());
    for (auto& v : t.data) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    images.push_back(std::move(t));
  }
  return images;
}

TEST(OpsPlane, ServeStreamExposesLiveEndpoints) {
  const auto model = tiny_model();
  const int n_devices = 2;
  const auto strategy = even_strategy(model, n_devices);
  Rng rng(3);
  const auto weights = runtime::random_weights(model, rng);
  const auto images = random_images(model, 300, rng);

  obs::AdminServer admin;
  runtime::ServeOptions options;
  options.inflight = 2;
  options.admin = &admin;
  options.slo_ms = 10000;  // generous: violations must stay 0
  obs::TraceCapture capture;
  options.trace = &capture;

  runtime::ServeResult result;
  std::thread streamer([&] {
    result = runtime::serve_stream(model, strategy, weights, images,
                                   n_devices, options);
  });

  // Wait until the stream has demonstrably delivered something, scraping
  // the live endpoints as we go.
  bool saw_live_delivery = false;
  for (int attempt = 0; attempt < 2000 && !saw_live_delivery; ++attempt) {
    const auto streams = obs::http_get(admin.port(), "/streams");
    if (streams.has_value() && streams->status == 200 &&
        streams->body.find("\"delivered\":0") == std::string::npos &&
        streams->body.find("\"delivered\":") != std::string::npos) {
      saw_live_delivery = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(saw_live_delivery);

  const auto health = obs::http_get(admin.port(), "/healthz");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->status, 200);

  const auto metrics = obs::http_get(admin.port(), "/metrics");
  ASSERT_TRUE(metrics.has_value());
  EXPECT_EQ(metrics->status, 200);
  // Prometheus shape: typed families, the canonical stream counters, and
  // the queue-depth gauges sampled per delivery/scrape.
  EXPECT_NE(metrics->body.find("# TYPE "), std::string::npos);
  EXPECT_NE(metrics->body.find("stream_images"), std::string::npos);
  EXPECT_NE(metrics->body.find("rpc_mailbox_depth{name=\"data\"}"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("stream_image_latency_us_bucket"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("le=\"+Inf\""), std::string::npos);

  const auto dump = obs::http_get(admin.port(), "/trace/dump?s=30");
  ASSERT_TRUE(dump.has_value());
  EXPECT_EQ(dump->status, 200);
  // Chrome trace JSON with real events from the flight recorder.
  EXPECT_NE(dump->body.find("traceEvents"), std::string::npos);
  EXPECT_NE(dump->body.find("\"ph\""), std::string::npos);

  streamer.join();
  obs::TraceRecorder::instance().disable();

  EXPECT_EQ(result.images, 300);
  // SLO never violated under the generous target.
  const auto streams_after = obs::http_get(admin.port(), "/streams");
  ASSERT_TRUE(streams_after.has_value());
  // Routes are down after serve_stream returns (teardown unroutes).
  EXPECT_EQ(streams_after->status, 404);
  admin.close();
}

TEST(OpsPlane, FlightRecorderArmsWhenAdminWired) {
  const auto model = tiny_model();
  const int n_devices = 2;
  const auto strategy = even_strategy(model, n_devices);
  Rng rng(5);
  const auto weights = runtime::random_weights(model, rng);
  const auto images = random_images(model, 4, rng);

  obs::TraceRecorder::instance().disable();
  ASSERT_FALSE(obs::TraceRecorder::instance().enabled());

  obs::AdminServer admin;
  runtime::ServeOptions options;
  options.admin = &admin;
  (void)runtime::serve_stream(model, strategy, weights, images, n_devices,
                              options);
  // Always-on semantics: the recorder stays armed after the stream so the
  // next /trace/dump still has history.
  EXPECT_TRUE(obs::TraceRecorder::instance().enabled());
  obs::TraceRecorder::instance().disable();
  admin.close();
}

TEST(OpsPlane, FrontDoorExposesStreamsAndMetrics) {
  const auto model = tiny_model();
  const int n_devices = 2;
  Rng rng(9);
  const auto weights = runtime::random_weights(model, rng);

  auto fabric = runtime::make_fabric(n_devices, /*use_tcp=*/false);
  runtime::DataPlaneStats stats;
  std::vector<runtime::TenantModel> fleet_models{{&model, &weights}};
  runtime::Supervisor providers =
      runtime::spawn_providers_multi(fabric, n_devices, fleet_models, stats);

  obs::AdminServer admin;
  {
    std::vector<serve::TenantSpec> fleet{
        {&model, &weights, even_strategy(model, n_devices)}};
    serve::StreamServerOptions server_options;
    server_options.admin = &admin;
    server_options.slo_ms = 10000;
    obs::TraceCapture trace;
    trace.node_origin_us = fabric.node_origin_us;
    server_options.trace = &trace;
    serve::StreamServer server(fabric.requester(), n_devices, fleet, stats,
                               server_options);

    const auto health = obs::http_get(admin.port(), "/healthz");
    ASSERT_TRUE(health.has_value());
    EXPECT_EQ(health->status, 200);

    // Window 8 > image count: submit-all-then-pop-all cannot starve the
    // credit loop (credits only return on pop).
    const int id = server.open_stream(0, /*window=*/8);
    ASSERT_GE(id, 0);
    const auto images = random_images(model, 6, rng);
    for (const auto& img : images) ASSERT_TRUE(server.submit(id, img));
    // Mid-stream, the door never holds more than 2 x n_devices images
    // dispatched but not yet gathered; the rest wait at the pump.
    const auto live = obs::http_get(admin.port(), "/metrics");
    ASSERT_TRUE(live.has_value());
    const std::string gauge = "\ndoor_inflight ";
    const auto at = live->body.find(gauge);
    ASSERT_NE(at, std::string::npos);
    EXPECT_LE(std::stod(live->body.substr(at + gauge.size())), 2 * n_devices);
    for (int k = 0; k < 6; ++k) ASSERT_TRUE(server.pop(id).has_value());

    const auto streams = obs::http_get(admin.port(), "/streams");
    ASSERT_TRUE(streams.has_value());
    EXPECT_EQ(streams->status, 200);
    EXPECT_NE(streams->body.find("\"stream\":" + std::to_string(id)),
              std::string::npos);
    EXPECT_NE(streams->body.find("\"delivered\":6"), std::string::npos);
    EXPECT_NE(streams->body.find("\"slo_violations\":0"), std::string::npos);
    EXPECT_NE(streams->body.find("\"credit_stalls\":"), std::string::npos);
    // Where the wait went: nothing is left waiting at the pump.
    EXPECT_NE(streams->body.find("\"queued\":0"), std::string::npos);

    const auto metrics = obs::http_get(admin.port(), "/metrics");
    ASSERT_TRUE(metrics.has_value());
    EXPECT_EQ(metrics->status, 200);
    EXPECT_NE(metrics->body.find("door_open_streams"), std::string::npos);
    // Dispatched-but-ungathered images: none once every output was popped.
    EXPECT_NE(metrics->body.find("door_inflight 0"), std::string::npos);
    EXPECT_NE(metrics->body.find("stream_images 6"), std::string::npos);
    EXPECT_NE(metrics->body.find("rpc_mailbox_depth{name=\"serve\"}"),
              std::string::npos);

    // With origins wired, the front door serves trace dumps too.
    const auto dump = obs::http_get(admin.port(), "/trace/dump?s=30");
    ASSERT_TRUE(dump.has_value());
    EXPECT_EQ(dump->status, 200);
    EXPECT_NE(dump->body.find("traceEvents"), std::string::npos);

    // No controller attached: membership degrades to an empty device list.
    const auto membership = obs::http_get(admin.port(), "/membership");
    ASSERT_TRUE(membership.has_value());
    EXPECT_EQ(membership->status, 200);
    EXPECT_NE(membership->body.find("\"devices\":[]"), std::string::npos);

    server.close();
    // close() unroutes before the server state drains.
    const auto after = obs::http_get(admin.port(), "/streams");
    ASSERT_TRUE(after.has_value());
    EXPECT_EQ(after->status, 404);
  }
  providers.join_all();
  obs::TraceRecorder::instance().disable();
  admin.close();
}

}  // namespace
}  // namespace de
