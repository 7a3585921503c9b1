// Fuzz/property tests for the wire decoders: random truncation, bit flips,
// hostile length/extent claims, and pure garbage must always surface as a
// de::Error — never a crash, a misread, or a huge speculative allocation.
// Deterministic (seeded Rng), so a failure reproduces exactly.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "core/serialize.hpp"
#include "rpc/wire.hpp"

namespace de::rpc {
namespace {

ChunkMsg sample_chunk(Rng& rng) {
  ChunkMsg msg;
  msg.type = MsgType::kHaloRows;
  msg.seq = rng.uniform_int(0, 100);
  msg.volume = rng.uniform_int(0, 7);
  msg.row_offset = rng.uniform_int(0, 50);
  msg.from_node = rng.uniform_int(0, 4);
  msg.chunk_id = static_cast<std::uint32_t>(rng.uniform_int(1, 1 << 20));
  msg.stream = rng.uniform_int(0, 3);
  msg.rows = cnn::Tensor(rng.uniform_int(1, 6), rng.uniform_int(1, 6),
                         rng.uniform_int(1, 4));
  for (auto& v : msg.rows.data) v = static_cast<float>(rng.uniform(-2.0, 2.0));
  return msg;
}

/// Every decoder applied to `frame`; each must either succeed or throw
/// de::Error. Anything else (segfault, std::bad_alloc from a hostile length,
/// a different exception type) fails the test.
void decode_must_not_crash(const Payload& frame) {
  const auto probe = [&](auto&& decode) {
    try {
      decode(frame);
    } catch (const Error&) {
      // expected for malformed frames
    }
    // Any other exception escapes and fails the test loudly.
  };
  probe([](const Payload& f) { peek_type(f); });
  probe([](const Payload& f) { decode_chunk(f); });
  probe([](const Payload& f) { decode_halo_request(f); });
  probe([](const Payload& f) { decode_ack(f); });
  probe([](const Payload& f) { decode_nack(f); });
  probe([](const Payload& f) { decode_telemetry(f); });
  probe([](const Payload& f) { decode_reconfigure(f); });
  probe([](const Payload& f) { decode_stream_hello(f); });
  probe([](const Payload& f) { decode_stream_accept(f); });
  probe([](const Payload& f) { decode_stream_reject(f); });
  probe([](const Payload& f) { decode_stream_close(f); });
  probe([](const Payload& f) { decode_dispatch(f); });
  probe([](const Payload& f) { decode_heartbeat(f); });
  probe([](const Payload& f) { decode_membership(f); });
  probe([](const Payload& f) { decode_lane_evict(f); });
}

TelemetryMsg sample_telemetry(Rng& rng) {
  TelemetryMsg msg;
  msg.from_node = rng.uniform_int(0, 4);
  msg.window_s = rng.uniform(0.0, 10.0);
  msg.compute_ms = rng.uniform(0.0, 50.0);
  msg.images = rng.uniform_int(0, 100);
  const int n_links = rng.uniform_int(0, 5);
  for (int k = 0; k < n_links; ++k) {
    msg.links.push_back({rng.uniform_int(0, 6), rng.uniform(0.1, 300.0),
                         rng.uniform(0.0, 64.0)});
  }
  return msg;
}

ReconfigureMsg sample_reconfigure(Rng& rng) {
  ReconfigureMsg msg;
  msg.epoch = rng.uniform_int(1, 50);
  msg.from_seq = rng.uniform_int(0, 5000);
  msg.stream = rng.uniform_int(0, 8);
  msg.model_id = rng.uniform_int(0, 3);
  msg.n_devices = rng.uniform_int(1, 6);
  const int n_volumes = rng.uniform_int(1, 5);
  int layer = 0;
  for (int l = 0; l < n_volumes; ++l) {
    const int next = layer + rng.uniform_int(1, 3);
    msg.volumes.push_back({layer, next});
    layer = next;
    std::vector<int> cuts{0};
    for (int d = 0; d < msg.n_devices; ++d) {
      cuts.push_back(cuts.back() + rng.uniform_int(0, 12));
    }
    msg.cuts.push_back(std::move(cuts));
  }
  if (rng.uniform_int(0, 1) == 1) {
    msg.from_node = rng.uniform_int(0, 6);
    msg.chunk_id = static_cast<std::uint32_t>(rng.uniform_int(1, 1 << 20));
  }
  return msg;
}

TEST(WireFuzz, RandomTruncationAlwaysErrors) {
  Rng rng(2024);
  for (int iter = 0; iter < 300; ++iter) {
    const auto frame = encode_chunk(sample_chunk(rng));
    const auto cut = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(frame.size()) - 1));
    const Payload truncated(frame.begin(),
                            frame.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(decode_chunk(truncated), Error) << "cut at " << cut;
    decode_must_not_crash(truncated);
  }
}

TEST(WireFuzz, RandomBitFlipsNeverCrash) {
  Rng rng(4711);
  int survived = 0;
  for (int iter = 0; iter < 600; ++iter) {
    auto frame = encode_chunk(sample_chunk(rng));
    const int flips = rng.uniform_int(1, 8);
    for (int f = 0; f < flips; ++f) {
      const auto byte = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(frame.size()) - 1));
      frame[byte] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
    }
    decode_must_not_crash(frame);
    try {
      (void)decode_chunk(frame);
      ++survived;  // flip landed in the float payload — legitimate
    } catch (const Error&) {
    }
  }
  // Most flips hit the payload (it dominates the frame), so a healthy
  // decoder accepts many mutants; the point is it never dies on the rest.
  EXPECT_GT(survived, 0);
}

TEST(WireFuzz, PureGarbageNeverCrashes) {
  Rng rng(99);
  for (int iter = 0; iter < 600; ++iter) {
    Payload garbage(static_cast<std::size_t>(rng.uniform_int(0, 64)));
    for (auto& b : garbage) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    decode_must_not_crash(garbage);
  }
}

TEST(WireFuzz, GarbageWithValidHeaderNeverCrashes) {
  Rng rng(31337);
  for (int iter = 0; iter < 600; ++iter) {
    core::ByteWriter w;
    w.u32(kWireMagic);
    w.u16(static_cast<std::uint16_t>(rng.uniform_int(1, kWireVersion)));
    w.u16(static_cast<std::uint16_t>(rng.uniform_int(0, 16)));
    const int body = rng.uniform_int(0, 48);
    for (int k = 0; k < body; ++k) {
      w.u16(static_cast<std::uint16_t>(rng.uniform_int(0, 0xffff)));
    }
    decode_must_not_crash(w.bytes());
  }
}

TEST(WireFuzz, OversizedExtentClaimsRejectedBeforeAllocation) {
  // Claimed extents whose product stays under the overflow cap but far
  // exceeds the actual payload: the length cross-check must reject the
  // frame before any tensor allocation happens. If the decoder allocated
  // from the claim, these iterations would try to reserve terabytes in
  // total and the test would OOM rather than pass.
  Rng rng(555);
  for (int iter = 0; iter < 200; ++iter) {
    core::ByteWriter w;
    w.u32(kWireMagic);
    w.u16(kWireVersion);
    w.u16(static_cast<std::uint16_t>(MsgType::kScatter));
    w.i32(0);                          // seq
    w.i32(0);                          // volume
    w.i32(0);                          // row_offset
    w.i32(0);                          // from_node
    w.u32(1);                          // chunk_id
    w.i32(rng.uniform_int(1 << 10, 1 << 14));  // h
    w.i32(rng.uniform_int(1 << 10, 1 << 14));  // w: h*w*c ~ 2^20..2^28 elems
    w.i32(rng.uniform_int(1, 4));      // c
    w.f32(0.0f);                       // but only 4 bytes of payload
    EXPECT_THROW(decode_chunk(w.bytes()), Error);
  }
}

TEST(WireFuzz, ExtentOverflowRejected) {
  const auto hostile_frame = [](std::int32_t h, std::int32_t w_extent,
                                std::int32_t c) {
    core::ByteWriter w;
    w.u32(kWireMagic);
    w.u16(kWireVersion);
    w.u16(static_cast<std::uint16_t>(MsgType::kGather));
    w.i32(0);
    w.i32(0);
    w.i32(0);
    w.i32(0);
    w.u32(1);
    w.i32(h);
    w.i32(w_extent);
    w.i32(c);
    return w.take();
  };
  constexpr auto kMax = std::numeric_limits<std::int32_t>::max();
  EXPECT_THROW(decode_chunk(hostile_frame(kMax, kMax, kMax)), Error);
  // Extents whose full product wraps mod 2^64 to exactly 0: a naive
  // h*w*c product would pass both the cap and the (empty) payload-length
  // check and hand back a tensor whose extents disagree with its storage.
  EXPECT_THROW(decode_chunk(hostile_frame(1 << 21, 1 << 21, 1 << 22)), Error);
  // A neighbouring triple that wraps to a nonzero value is equally hostile.
  EXPECT_THROW(decode_chunk(hostile_frame(1 << 21, 1 << 21, (1 << 22) + 1)),
               Error);
}

TEST(WireFuzz, ControlPlaneFramesSurviveTruncationAndFlips) {
  Rng rng(808);
  for (int iter = 0; iter < 300; ++iter) {
    const auto frame = iter % 2 == 0
                           ? encode_telemetry(sample_telemetry(rng))
                           : encode_reconfigure(sample_reconfigure(rng));
    // Every truncation point must error, never crash or misread.
    const auto cut = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(frame.size()) - 1));
    const Payload truncated(frame.begin(),
                            frame.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(decode_telemetry(truncated), Error);
    EXPECT_THROW(decode_reconfigure(truncated), Error);
    decode_must_not_crash(truncated);
    // Bit flips anywhere in the frame.
    auto mutated = frame;
    for (int f = rng.uniform_int(1, 6); f > 0; --f) {
      const auto byte = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(mutated.size()) - 1));
      mutated[byte] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
    }
    decode_must_not_crash(mutated);
  }
}

TEST(WireFuzz, HostileControlPlaneCountsRejectedBeforeAllocation) {
  // Claimed link/volume/device counts far beyond the actual payload: the
  // exact-length cross-check must fire before any vector reserve. If the
  // decoders allocated from the claims, these frames would demand huge
  // buffers for ~20 real bytes each.
  Rng rng(606);
  for (int iter = 0; iter < 200; ++iter) {
    {
      core::ByteWriter w;
      w.u32(kWireMagic);
      w.u16(kWireVersion);
      w.u16(static_cast<std::uint16_t>(MsgType::kTelemetry));
      w.i32(0);                                  // from_node
      w.f32(1.0f);                               // window_s
      w.f32(1.0f);                               // compute_ms
      w.i32(1);                                  // images
      w.i64(0);                                  // steady_now_us
      w.i32(rng.uniform_int(1 << 20, 1 << 30));  // hostile n_links
      w.f32(0.0f);                               // a few stray bytes
      EXPECT_THROW(decode_telemetry(w.bytes()), Error);
    }
    {
      core::ByteWriter w;
      w.u32(kWireMagic);
      w.u16(kWireVersion);
      w.u16(static_cast<std::uint16_t>(MsgType::kReconfigure));
      w.i32(-1);                                 // from_node (untracked)
      w.u32(0);                                  // chunk_id
      w.i32(1);                                  // epoch
      w.i32(0);                                  // from_seq
      w.i32(0);                                  // stream
      w.i32(0);                                  // model_id
      w.i32(rng.uniform_int(1 << 10, 1 << 16));  // hostile n_devices
      w.i32(rng.uniform_int(1 << 10, 1 << 16));  // hostile n_volumes
      w.i32(0);
      EXPECT_THROW(decode_reconfigure(w.bytes()), Error);
    }
  }
  // Counts beyond the sanity caps are rejected outright.
  core::ByteWriter w;
  w.u32(kWireMagic);
  w.u16(kWireVersion);
  w.u16(static_cast<std::uint16_t>(MsgType::kReconfigure));
  w.i32(-1);
  w.u32(0);
  w.i32(1);
  w.i32(0);
  w.i32(0);  // stream
  w.i32(0);  // model_id
  w.i32((1 << 16) + 1);  // n_devices over the cap
  w.i32(1);
  EXPECT_THROW(decode_reconfigure(w.bytes()), Error);
}

TEST(WireFuzz, ControlPlaneRoundTripsAreExact) {
  Rng rng(909);
  for (int iter = 0; iter < 100; ++iter) {
    const auto telemetry = sample_telemetry(rng);
    const auto t_frame = encode_telemetry(telemetry);
    EXPECT_EQ(encode_telemetry(decode_telemetry(t_frame)), t_frame);
    const auto reconfigure = sample_reconfigure(rng);
    const auto r_frame = encode_reconfigure(reconfigure);
    EXPECT_EQ(encode_reconfigure(decode_reconfigure(r_frame)), r_frame);
  }
}

TEST(WireFuzz, StreamSessionFramesRoundTripAndSurviveTruncation) {
  DispatchMsg d;
  d.from_node = 2;
  d.chunk_id = 7;
  d.stream = 3;
  d.seq = 41;
  d.epoch = 2;
  const auto hello = encode_stream_hello({5555, 1, 8});
  const auto accept = encode_stream_accept({3, 8});
  const auto reject = encode_stream_reject({StreamRejectMsg::kBusy});
  const auto close = encode_stream_close({3});
  const auto dispatch = encode_dispatch(d);
  // Exact round trips.
  EXPECT_EQ(encode_stream_hello(decode_stream_hello(hello)), hello);
  EXPECT_EQ(encode_stream_accept(decode_stream_accept(accept)), accept);
  EXPECT_EQ(encode_stream_reject(decode_stream_reject(reject)), reject);
  EXPECT_EQ(encode_stream_close(decode_stream_close(close)), close);
  EXPECT_EQ(encode_dispatch(decode_dispatch(dispatch)), dispatch);
  // Every truncation point of every frame must error, never crash.
  for (const auto& frame : {hello, accept, reject, close, dispatch}) {
    for (std::size_t cut = 0; cut < frame.size(); ++cut) {
      const Payload t(frame.begin(),
                      frame.begin() + static_cast<std::ptrdiff_t>(cut));
      decode_must_not_crash(t);
      EXPECT_THROW(decode_stream_hello(t), Error);
      EXPECT_THROW(decode_dispatch(t), Error);
    }
  }
  // Hostile field values are rejected.
  EXPECT_THROW(encode_stream_hello({0, 0, 0}), Error);       // no port
  EXPECT_THROW(encode_stream_hello({1 << 17, 0, 0}), Error); // port overflow
  EXPECT_THROW(encode_stream_accept({-1, 8}), Error);
  EXPECT_THROW(encode_stream_accept({0, 0}), Error);         // zero window
  EXPECT_THROW(encode_stream_reject({99}), Error);
}

MembershipMsg sample_membership(Rng& rng) {
  MembershipMsg msg;
  if (rng.uniform_int(0, 1) == 1) {
    msg.from_node = rng.uniform_int(0, 6);
    msg.chunk_id = static_cast<std::uint32_t>(rng.uniform_int(1, 1 << 20));
  }
  msg.cancel_below = rng.uniform_int(0, 5000);
  msg.resume_seq = msg.cancel_below + rng.uniform_int(0, 64);
  const int n_died = rng.uniform_int(0, 3);
  for (int k = 0; k < n_died; ++k) msg.died.push_back(rng.uniform_int(0, 7));
  const int n_joined = rng.uniform_int(n_died == 0 ? 1 : 0, 3);
  for (int k = 0; k < n_joined; ++k) {
    msg.joined.push_back(
        {rng.uniform_int(0, 7),
         static_cast<std::uint32_t>(rng.uniform_int(1, 1 << 28))});
  }
  return msg;
}

TEST(WireFuzz, MembershipFramesSurviveTruncationAndFlips) {
  Rng rng(1216);
  for (int iter = 0; iter < 300; ++iter) {
    const auto frame = encode_membership(sample_membership(rng));
    EXPECT_EQ(encode_membership(decode_membership(frame)), frame);
    const auto cut = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(frame.size()) - 1));
    const Payload truncated(frame.begin(),
                            frame.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(decode_membership(truncated), Error) << "cut at " << cut;
    decode_must_not_crash(truncated);
    auto mutated = frame;
    for (int f = rng.uniform_int(1, 6); f > 0; --f) {
      const auto byte = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(mutated.size()) - 1));
      mutated[byte] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
    }
    decode_must_not_crash(mutated);
  }
}

TEST(WireFuzz, HostileMembershipCountsRejectedBeforeAllocation) {
  // Claimed death/join counts far beyond the real payload: the length
  // cross-check fires before either vector reserve, so a 20-byte frame can
  // never demand megabytes. Counts past the sanity cap die outright.
  Rng rng(1717);
  for (int iter = 0; iter < 200; ++iter) {
    core::ByteWriter w;
    w.u32(kWireMagic);
    w.u16(kWireVersion);
    w.u16(static_cast<std::uint16_t>(MsgType::kMembership));
    w.i32(-1);  // from_node (untracked)
    w.u32(0);   // chunk_id
    w.i32(0);   // cancel_below
    w.i32(0);   // resume_seq
    if (iter % 2 == 0) {
      w.i32(rng.uniform_int(1 << 10, 1 << 16));  // hostile n_died claim
      w.i32(1);                                  // a few stray bytes only
    } else {
      w.i32(1);                                  // one real death...
      w.i32(2);                                  // ...node id
      w.i32(rng.uniform_int(1 << 10, 1 << 16));  // hostile n_joined claim
    }
    EXPECT_THROW(decode_membership(w.bytes()), Error);
  }
  core::ByteWriter w;
  w.u32(kWireMagic);
  w.u16(kWireVersion);
  w.u16(static_cast<std::uint16_t>(MsgType::kMembership));
  w.i32(-1);
  w.u32(0);
  w.i32(0);
  w.i32(0);
  w.i32((1 << 16) + 1);  // n_died over the cap
  EXPECT_THROW(decode_membership(w.bytes()), Error);
}

TEST(WireFuzz, HeartbeatAndLaneEvictSurviveTruncationAndGarbage) {
  Rng rng(622);
  for (int iter = 0; iter < 200; ++iter) {
    HeartbeatMsg hb;
    hb.from_node = rng.uniform_int(0, 7);
    hb.hb_seq = static_cast<std::uint32_t>(rng.uniform_int(1, 1 << 30));
    hb.steady_now_us = rng.uniform_int(0, 1 << 30);
    LaneEvictMsg evict;
    evict.stream = rng.uniform_int(0, 64);
    evict.below_seq = rng.uniform_int(0, 5000);
    for (const auto& frame :
         {encode_heartbeat(hb), encode_lane_evict(evict)}) {
      const auto cut = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(frame.size()) - 1));
      const Payload t(frame.begin(),
                      frame.begin() + static_cast<std::ptrdiff_t>(cut));
      EXPECT_THROW(decode_heartbeat(t), Error);
      EXPECT_THROW(decode_lane_evict(t), Error);
      decode_must_not_crash(t);
      auto mutated = frame;
      mutated[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<int>(mutated.size()) - 1))] ^=
          static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
      decode_must_not_crash(mutated);
    }
    EXPECT_EQ(encode_heartbeat(decode_heartbeat(encode_heartbeat(hb))),
              encode_heartbeat(hb));
    EXPECT_EQ(encode_lane_evict(decode_lane_evict(encode_lane_evict(evict))),
              encode_lane_evict(evict));
  }
}

TEST(WireFuzz, TruncatedControlFramesError) {
  const auto ack = encode_ack(AckMsg{1, 99});
  const auto nack = encode_nack(NackMsg{2, 3, 1});
  for (const auto& frame : {ack, nack}) {
    for (std::size_t cut = 0; cut < frame.size(); ++cut) {
      const Payload t(frame.begin(),
                      frame.begin() + static_cast<std::ptrdiff_t>(cut));
      decode_must_not_crash(t);
      EXPECT_THROW(decode_ack(t), Error);
      EXPECT_THROW(decode_nack(t), Error);
    }
  }
}

}  // namespace
}  // namespace de::rpc
