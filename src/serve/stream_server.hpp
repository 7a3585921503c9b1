// Multi-tenant serving front door (DESIGN.md §serving-front-door): one
// process-wide pump thread multiplexes any number of concurrent client
// streams onto a single shared provider fleet.
//
//   clients ──> per-stream input queues ──> pump ──> dispatch + scatter
//     ^   (admission, window credits)        │        (global fleet seq,
//     │                                      v         fair cost order,
//     │                                                depth cap)
//   per-stream output queues  <── gather (global-seq order)
//
// Each admitted stream gets its own epoch lane (runtime::push_stream_epoch)
// and an in-flight window of `window` images: a stream may have at most
// `window` images anywhere between submit() and pop(). Credits are consumed
// at dispatch and returned at pop, so a consumer that stops popping stalls
// only its own stream — the pump simply skips streams without credits and
// keeps dispatching the others (no cross-stream head-of-line blocking).
//
// The queue is held at the pump, not in the providers' inboxes: at most
// 2 x n_devices images are dispatched but not yet gathered, and each free
// slot goes to the stream with the smallest finish tag, a fair queue over
// conv FLOPs (detail::fair_pick). A light tenant's image passes the heavy
// tenants' backlog instead of waiting behind it in provider inboxes; every
// provider still sees one global seq order.
//
// Per-stream strategy swaps (explicit or from an attached per-tenant
// controller) take effect at the stream's next dispatched image and never
// touch any other stream's lane.
//
// The door also rides fleet churn (DESIGN.md §membership): kHeartbeat
// frames on the shared telemetry mailbox feed every attached controller's
// lease book, a death decision cancels the in-flight window and re-queues
// those inputs for fresh dispatch under the survivor strategy (outputs stay
// bit-exact, nothing is silently dropped), and streams without their own
// controller are re-aimed by masking their current strategy over the
// survivors. Closed, fully drained streams get their epoch lanes evicted
// fleet-wide (kLaneEvict), so a long-gone stream pins no history.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/units.hpp"
#include "ctrl/controller.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "runtime/worker.hpp"

namespace de::obs {
class AdminServer;
}  // namespace de::obs

namespace de::serve {

/// One tenant model the fleet serves. `strategy` seeds every new stream of
/// this model; per-stream swaps replace it per lane, never here. The model
/// and weights are not owned and must outlive the server.
struct TenantSpec {
  const cnn::CnnModel* model = nullptr;
  const std::vector<cnn::ConvWeights>* weights = nullptr;
  sim::RawStrategy strategy;
};

struct StreamServerOptions {
  int max_streams = 16;    ///< admission cap on concurrently open streams
  int default_window = 4;  ///< per-stream in-flight window when hello says 0
  runtime::ReliabilityOptions reliability;
  /// Live ops plane (not owned; may be null). When set, the door registers
  /// /metrics (front-door registry: data-plane totals + queue-depth
  /// gauges), /healthz (503 once the pump failed), /membership (first
  /// attached tenant controller's lease book), and /streams (per-stream
  /// delivered/occupancy/latency-percentile/credit-stall accounting) for
  /// the server's lifetime; routes come down at close(), before the state
  /// the handlers capture dies.
  obs::AdminServer* admin = nullptr;
  /// Per-image submit->pop-ready SLO for every stream's /streams row
  /// (milliseconds; 0 = no target, violations stay 0).
  double slo_ms = 0;
  /// Per-node clock origins (the fabric's node_origin_us; not owned; may
  /// be null). When set alongside `admin`, the door also serves
  /// /trace/dump — flight-recorder snapshots merged onto one timeline.
  /// Without origins the dump cannot rebase provider clocks, so the route
  /// is not registered.
  const std::vector<std::int64_t>* node_origins = nullptr;
};

/// Point-in-time view of one stream's serving accounting.
struct StreamSnapshot {
  int model_id = 0;
  int window = 0;
  int epochs_pushed = 0;  ///< lane epochs announced (1 = never swapped)
  std::int64_t submitted = 0;
  std::int64_t delivered = 0;  ///< outputs handed to pop()
  int queued = 0;  ///< submitted, not yet dispatched (waiting at the pump)
  std::vector<double> latency_ms;  ///< submit -> gather-complete, per image
  /// Pump rounds that skipped this stream because it held queued input but
  /// no window credits (slow consumer) — the head-of-line-avoidance signal.
  std::int64_t credit_stalls = 0;
};

class StreamServer {
 public:
  /// `door` must be the fleet's requester endpoint (node n_devices) with
  /// the data/ctrl/telemetry/serve mailboxes open and the provider threads
  /// already running provider_loop_multi over the same `fleet` registry.
  StreamServer(rpc::Transport& door, int n_devices,
               std::span<const TenantSpec> fleet,
               runtime::DataPlaneStats& stats,
               StreamServerOptions options = {});
  ~StreamServer();

  StreamServer(const StreamServer&) = delete;
  StreamServer& operator=(const StreamServer&) = delete;

  /// Admission control: opens a stream of tenant `model_id` with in-flight
  /// window `window` (0 = options.default_window). Returns the stream id,
  /// or -1 when the stream cap is reached, the model id is unknown, or the
  /// request is malformed (negative window).
  int open_stream(int model_id, int window = 0);

  /// Queues one input image; blocks while the stream's window is full
  /// (window = images anywhere between submit and pop). False when the
  /// stream is closed or the server went down, and — without queueing
  /// anything or taking a credit — when the image's (h, w, c) is not the
  /// tenant model's input shape.
  bool submit(int stream, cnn::Tensor input);

  /// Pops the stream's next output in submission order, blocking until one
  /// is ready. Returns the window credit. nullopt once the stream is
  /// closed *and* fully drained (or the server went down).
  std::optional<cnn::Tensor> pop(int stream);

  /// Registers `strategy` as the stream's next epoch, effective at its
  /// next dispatched image. Other streams' lanes are untouched.
  void swap_strategy(int stream, const sim::RawStrategy& strategy);

  /// Fans every fleet telemetry frame into `controller` (which must be in
  /// start_external mode; not owned, must outlive the server) and applies
  /// its take_swap() decisions to this stream only — the PR-5 adaptive
  /// loop, per tenant.
  void attach_controller(int stream, ctrl::Controller* controller);

  /// No more submissions on `stream`; in-flight images still drain to
  /// pop().
  void close_stream(int stream);

  /// Ends serving: drains in-flight images, discards queued-but-
  /// undispatched inputs, releases the providers with kShutdown and joins
  /// the pump. Idempotent; also run by the destructor. Callers that want
  /// every output must pop them before closing.
  void close();

  StreamSnapshot snapshot(int stream) const;
  int n_devices() const { return n_devices_; }
  const TenantSpec& tenant(int model_id) const {
    return fleet_[static_cast<std::size_t>(model_id)];
  }
  int fleet_size() const { return static_cast<int>(fleet_.size()); }
  bool down() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Stream {
    int model_id = 0;
    int window = 0;
    int credits = 0;  ///< window minus images dispatched-but-not-popped
    bool closed = false;
    bool lane_open = false;
    bool evicted = false;  ///< lane history reclaimed (closed + drained)
    int epochs_pushed = 0;
    /// Strategy the lane's current epoch runs — the base a fleet-death
    /// masking redistributes from for streams without their own controller.
    sim::RawStrategy current;
    std::optional<sim::RawStrategy> pending_swap;
    ctrl::Controller* controller = nullptr;
    std::deque<std::pair<cnn::Tensor, Clock::time_point>> inputs;
    std::deque<cnn::Tensor> outputs;
    std::int64_t submitted = 0;
    std::int64_t delivered = 0;
    std::vector<double> latency_ms;
    /// Rolling-percentile window for /streams (shared_ptr: SloWindow holds
    /// a mutex, and Stream must stay movable for the map emplace).
    std::shared_ptr<obs::SloWindow> slo;
    std::int64_t credit_stalls = 0;  ///< see StreamSnapshot::credit_stalls
    /// Fair-queue state (detail::FairEntry): the tenant model's conv FLOPs,
    /// the finish tag of the last dispatch, and whether the stream was
    /// ready when the pump last looked.
    Ops cost = 0;
    Ops finish = 0;
    bool backlogged = false;
  };

  void pump();
  /// Registers/unroutes the ops-plane endpoints (constructor / close()).
  /// unregister is a handler barrier: after it returns no scrape thread is
  /// inside a handler, so `this` may die.
  void register_admin();
  void unregister_admin();
  /// Opens/refreshes stream `id`'s lane so the image about to be
  /// dispatched at `from_seq` runs under the right epoch.
  void prepare_lane(runtime::RequesterContext& ctx, int id, int from_seq);

  rpc::Transport& door_;
  const int n_devices_;
  std::vector<TenantSpec> fleet_;
  runtime::DataPlaneStats& stats_;
  const StreamServerOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_client_;  ///< wakes submit/pop waiters
  std::condition_variable cv_pump_;    ///< wakes the pump for new work
  std::map<int, Stream> streams_;
  int next_stream_ = 0;
  bool closing_ = false;
  bool down_ = false;  ///< pump failed (transport loss / starved gather)
  /// Pump's retransmitter while it lives (guarded by mu_): the /metrics
  /// handler samples its outbox depth, and the pump nulls this before the
  /// retransmitter dies.
  runtime::Retransmitter* rtx_ = nullptr;

  /// Front-door metrics registry: data-plane totals folded per scrape,
  /// queue-depth gauges sampled per scrape and per gathered image.
  obs::MetricsRegistry registry_;
  std::vector<std::string> admin_paths_;  ///< registered ops-plane routes

  std::thread pump_thread_;
};

namespace detail {

/// One stream as the pump's dispatch pick sees it. An entry is ready when
/// it has both queued input and a window credit.
struct FairEntry {
  Ops cost = 0;     ///< conv_chain_ops of the stream's model
  Ops finish = 0;   ///< last pick's finish tag, raised by a restart
  int queued = 0;   ///< inputs waiting at the pump
  int credits = 0;  ///< window credits left
  std::chrono::steady_clock::time_point head{};  ///< oldest input's submit
  /// Ready when fair_pick last looked; fair_pick keeps it up to date.
  bool backlogged = false;
};

/// The pump's dispatch order, a fair queue over conv FLOPs. An entry that
/// becomes ready (was not backlogged) first restarts its finish at
/// max(finish, vtime): time spent idle or out of credits banks no service,
/// and a new entry (finish 0) starts at `vtime`. Then, unless `inflight`
/// (images dispatched, not yet gathered) has reached `cap`, the pick is
/// the ready entry with the smallest tag finish + cost, ties to the older
/// head, then the lower index; its finish becomes that tag and `vtime`
/// advances to its start. Returns the pick's index, or -1 for none.
int fair_pick(std::span<FairEntry> entries, Ops& vtime, int inflight, int cap);

}  // namespace detail

}  // namespace de::serve
