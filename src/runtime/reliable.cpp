#include "runtime/reliable.hpp"

#include <string>
#include <utility>
#include <vector>

#include "common/require.hpp"
#include "obs/trace.hpp"

namespace de::runtime {

bool ChunkDedup::fresh(rpc::NodeId sender, std::uint32_t chunk_id) {
  if (chunk_id == 0) return true;  // untracked chunks are never deduped
  Window& w = seen_[sender];
  if (chunk_id <= w.contiguous) return false;
  if (!w.sparse.insert(chunk_id).second) return false;
  // Advance the watermark over any now-contiguous prefix.
  while (!w.sparse.empty() && *w.sparse.begin() == w.contiguous + 1) {
    ++w.contiguous;
    w.sparse.erase(w.sparse.begin());
  }
  // Bounded sparse window: ids normally arrive gaplessly per link, so a
  // sparse set this large means the sender jumped its ids (rejoined with a
  // new incarnation base) and the hole below will never fill. Advance past
  // the oldest hole rather than growing forever.
  while (w.sparse.size() > kMaxSparse) {
    w.contiguous = *w.sparse.begin();
    w.sparse.erase(w.sparse.begin());
    while (!w.sparse.empty() && *w.sparse.begin() == w.contiguous + 1) {
      ++w.contiguous;
      w.sparse.erase(w.sparse.begin());
    }
  }
  return true;
}

void ChunkDedup::assume(rpc::NodeId sender, std::uint32_t base) {
  Window& w = seen_[sender];
  if (base <= w.contiguous) return;
  w.contiguous = base;
  w.sparse.erase(w.sparse.begin(), w.sparse.upper_bound(base));
  while (!w.sparse.empty() && *w.sparse.begin() == w.contiguous + 1) {
    ++w.contiguous;
    w.sparse.erase(w.sparse.begin());
  }
}

Retransmitter::Retransmitter(rpc::Transport& transport,
                             const ReliabilityOptions& options,
                             DataPlaneStats& stats)
    : transport_(transport), options_(options), stats_(stats) {
  DE_REQUIRE(options_.rto_ms > 0 && options_.max_attempts >= 1,
             "retransmitter needs a positive rto and attempt budget");
  thread_ = std::thread([this] { ctrl_loop(); });
}

Retransmitter::~Retransmitter() { stop(); }

std::uint32_t Retransmitter::next_chunk_id(rpc::NodeId to) {
  std::lock_guard lk(mu_);
  std::uint32_t& id = next_id_[to];
  if (id < id_base_) id = id_base_;
  return ++id;
}

std::size_t Retransmitter::cancel_to(rpc::NodeId to) {
  std::size_t cancelled = 0;
  {
    std::lock_guard lk(mu_);
    auto it = outbox_.lower_bound(LinkChunk{to, 0});
    while (it != outbox_.end() && it->first.first == to) {
      it = outbox_.erase(it);
      ++cancelled;
    }
  }
  if (cancelled > 0) {
    stats_.retx_cancelled.fetch_add(static_cast<std::int64_t>(cancelled),
                                    std::memory_order_relaxed);
    obs::trace_instant(obs::Cat::kRetxCancel, -1, -1, to,
                       static_cast<std::int64_t>(cancelled));
  }
  return cancelled;
}

void Retransmitter::set_id_base(std::uint32_t base) {
  std::lock_guard lk(mu_);
  if (base > id_base_) id_base_ = base;
}

void Retransmitter::track(const rpc::Address& to, std::uint32_t chunk_id,
                          rpc::Frame frame) {
  std::lock_guard lk(mu_);
  tracked_peers_.insert(to.node);
  outbox_.emplace(LinkChunk{to.node, chunk_id},
                  Entry{to, std::move(frame), 1,
                        std::chrono::steady_clock::now()});
}

std::map<rpc::NodeId, std::size_t> Retransmitter::outbox_depth_by_peer()
    const {
  std::map<rpc::NodeId, std::size_t> out;
  std::lock_guard lk(mu_);
  // Seed every ever-tracked peer at 0 so drained outboxes report 0 rather
  // than silently vanishing (gauges hold their last value otherwise).
  for (const auto node : tracked_peers_) out[node] = 0;
  for (const auto& [link, entry] : outbox_) ++out[link.first];
  return out;
}

Retransmitter::Resend Retransmitter::stage_resend_locked(Entry& entry) {
  ++entry.attempts;
  entry.last_send = std::chrono::steady_clock::now();
  stats_.retransmits.fetch_add(1, std::memory_order_relaxed);
  stats_.wire_bytes.fetch_add(static_cast<Bytes>(entry.frame.size()),
                              std::memory_order_relaxed);
  return Resend{entry.to, entry.frame};  // refcount share with the outbox
}

void Retransmitter::ctrl_loop() {
  obs::bind_thread("retx-" + std::to_string(transport_.local_node()),
                   transport_.local_node());
  while (!stop_.load(std::memory_order_acquire)) {
    rpc::Frame payload;
    const auto status =
        transport_.receive_for(rpc::kCtrlMailbox, options_.rto_ms, payload);
    if (stop_.load(std::memory_order_acquire)) return;
    if (status == rpc::RecvStatus::kClosed) return;

    // Frames staged under the lock, sent after it: send() can block for a
    // whole large tensor frame (TCP), and worker threads take mu_ in
    // next_chunk_id()/track() on their hot path.
    std::vector<Resend> burst;

    if (status == rpc::RecvStatus::kOk) {
      try {
        switch (rpc::peek_type(payload)) {
          case rpc::MsgType::kAck: {
            // The acker's node id names the link; ids are per-link.
            const auto ack = rpc::decode_ack(payload);
            std::lock_guard lk(mu_);
            if (outbox_.erase(LinkChunk{ack.from_node, ack.chunk_id}) > 0) {
              stats_.acks.fetch_add(1, std::memory_order_relaxed);
            }
            break;
          }
          case rpc::MsgType::kNack: {
            // The complainer is starving: resend everything still unacked
            // on its link right now rather than waiting out the rto.
            const auto nack = rpc::decode_nack(payload);
            std::lock_guard lk(mu_);
            auto it = outbox_.lower_bound(LinkChunk{nack.from_node, 0});
            while (it != outbox_.end() && it->first.first == nack.from_node) {
              if (it->second.attempts >= options_.max_attempts) {
                stats_.chunks_abandoned.fetch_add(1, std::memory_order_relaxed);
                it = outbox_.erase(it);
                continue;
              }
              burst.push_back(stage_resend_locked(it->second));
              ++it;
            }
            obs::trace_instant(obs::Cat::kNackResend, nack.seq, -1, -1,
                               static_cast<std::int64_t>(burst.size()));
            break;
          }
          default:
            break;  // stray frame on the control mailbox: ignore
        }
      } catch (const Error&) {
        // Malformed control frame (or the wake-up frame stop() posts):
        // drop it and keep the loop alive.
      }
    }

    // Timer pass: resend anything unacked past the rto, abandon anything
    // over budget.
    {
      const auto now = std::chrono::steady_clock::now();
      std::lock_guard lk(mu_);
      for (auto it = outbox_.begin(); it != outbox_.end();) {
        const auto age =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                now - it->second.last_send)
                .count();
        if (age < options_.rto_ms) {
          ++it;
          continue;
        }
        if (it->second.attempts >= options_.max_attempts) {
          stats_.chunks_abandoned.fetch_add(1, std::memory_order_relaxed);
          it = outbox_.erase(it);
          continue;
        }
        obs::trace_instant(obs::Cat::kRtoFire, -1, -1, -1,
                           static_cast<std::int64_t>(it->first.second));
        burst.push_back(stage_resend_locked(it->second));
        ++it;
      }
    }

    for (auto& resend : burst) {
      transport_.send(resend.to, std::move(resend.frame));
    }
  }
}

void Retransmitter::stop() {
  // Not a synchronisation point between threads: the owner (loop thread's
  // spawner) calls stop()/~Retransmitter; the first call joins.
  if (stop_.exchange(true, std::memory_order_acq_rel)) return;
  // Best-effort wake-up so the join does not wait out a full rto: an empty
  // frame fails to decode and is discarded by the loop.
  transport_.send(rpc::Address{transport_.local_node(), rpc::kCtrlMailbox},
                  rpc::Frame{});
  if (thread_.joinable()) thread_.join();
}

}  // namespace de::runtime
