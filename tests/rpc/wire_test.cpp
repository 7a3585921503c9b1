// Wire-format contract: decode(encode(m)) == m bit-for-bit (floats travel as
// raw IEEE-754 bit patterns), and every class of malformed frame is rejected
// with de::Error instead of being misread.
#include "rpc/wire.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/require.hpp"
#include "core/serialize.hpp"

namespace de::rpc {
namespace {

ChunkMsg sample_chunk(MsgType type) {
  ChunkMsg msg;
  msg.type = type;
  msg.seq = 7;
  msg.volume = 2;
  msg.row_offset = 11;
  msg.epoch = 3;
  msg.rows = cnn::Tensor(3, 4, 2);
  for (std::size_t i = 0; i < msg.rows.data.size(); ++i) {
    msg.rows.data[i] = 0.25f * static_cast<float>(i) - 1.5f;
  }
  return msg;
}

TEST(Wire, ChunkRoundTripsBitExact) {
  for (const auto type :
       {MsgType::kScatter, MsgType::kHaloRows, MsgType::kGather}) {
    const auto msg = sample_chunk(type);
    const auto frame = encode_chunk(msg);
    EXPECT_EQ(peek_type(frame), type);
    const auto back = decode_chunk(frame);
    EXPECT_EQ(back.type, msg.type);
    EXPECT_EQ(back.seq, msg.seq);
    EXPECT_EQ(back.volume, msg.volume);
    EXPECT_EQ(back.row_offset, msg.row_offset);
    EXPECT_EQ(back.epoch, msg.epoch);
    ASSERT_EQ(back.rows.h, msg.rows.h);
    ASSERT_EQ(back.rows.w, msg.rows.w);
    ASSERT_EQ(back.rows.c, msg.rows.c);
    for (std::size_t i = 0; i < msg.rows.data.size(); ++i) {
      // Bit equality, not value equality: the data plane promises the
      // distributed output is indistinguishable from the reference.
      EXPECT_EQ(std::bit_cast<std::uint32_t>(back.rows.data[i]),
                std::bit_cast<std::uint32_t>(msg.rows.data[i]));
    }
  }
}

TEST(Wire, SpecialFloatsSurviveTheWire) {
  auto msg = sample_chunk(MsgType::kHaloRows);
  msg.rows.data[0] = std::numeric_limits<float>::quiet_NaN();
  msg.rows.data[1] = std::numeric_limits<float>::infinity();
  msg.rows.data[2] = -0.0f;
  msg.rows.data[3] = std::numeric_limits<float>::denorm_min();
  const auto back = decode_chunk(encode_chunk(msg));
  EXPECT_TRUE(std::isnan(back.rows.data[0]));
  EXPECT_EQ(back.rows.data[1], std::numeric_limits<float>::infinity());
  EXPECT_EQ(std::bit_cast<std::uint32_t>(back.rows.data[2]),
            std::bit_cast<std::uint32_t>(-0.0f));
  EXPECT_EQ(back.rows.data[3], std::numeric_limits<float>::denorm_min());
}

TEST(Wire, ReencodeIsIdentical) {
  const auto frame = encode_chunk(sample_chunk(MsgType::kScatter));
  const auto again = encode_chunk(decode_chunk(frame));
  EXPECT_EQ(frame, again);
}

TEST(Wire, HaloRequestRoundTrips) {
  HaloRequestMsg msg{/*seq=*/3, /*volume=*/1, /*begin=*/4, /*end=*/9,
                     /*from_node=*/2};
  const auto frame = encode_halo_request(msg);
  EXPECT_EQ(peek_type(frame), MsgType::kHaloRequest);
  const auto back = decode_halo_request(frame);
  EXPECT_EQ(back.seq, msg.seq);
  EXPECT_EQ(back.volume, msg.volume);
  EXPECT_EQ(back.begin, msg.begin);
  EXPECT_EQ(back.end, msg.end);
  EXPECT_EQ(back.from_node, msg.from_node);
}

TEST(Wire, ShutdownIsHeaderOnly) {
  const auto frame = encode_shutdown();
  EXPECT_EQ(frame.size(), 8u);
  EXPECT_EQ(peek_type(frame), MsgType::kShutdown);
}

TEST(Wire, TrackedChunkCarriesReliabilityHandles) {
  auto msg = sample_chunk(MsgType::kHaloRows);
  msg.from_node = 3;
  msg.chunk_id = 42;
  const auto back = decode_chunk(encode_chunk(msg));
  EXPECT_EQ(back.from_node, 3);
  EXPECT_EQ(back.chunk_id, 42u);
  // Tracked-by-nobody is malformed: chunk_id without a sender.
  auto frame = encode_chunk(msg);
  // from_node lives at bytes 20-23: overwrite with kNilNode (-1).
  frame[20] = frame[21] = frame[22] = frame[23] = 0xff;
  EXPECT_THROW(decode_chunk(frame), Error);
}

TEST(Wire, AckAndNackRoundTrip) {
  const auto ack_frame = encode_ack(AckMsg{/*from_node=*/2, /*chunk_id=*/77});
  EXPECT_EQ(peek_type(ack_frame), MsgType::kAck);
  const auto ack = decode_ack(ack_frame);
  EXPECT_EQ(ack.from_node, 2);
  EXPECT_EQ(ack.chunk_id, 77u);

  const auto nack_frame =
      encode_nack(NackMsg{/*from_node=*/4, /*seq=*/9, /*volume=*/1});
  EXPECT_EQ(peek_type(nack_frame), MsgType::kNack);
  const auto nack = decode_nack(nack_frame);
  EXPECT_EQ(nack.from_node, 4);
  EXPECT_EQ(nack.seq, 9);
  EXPECT_EQ(nack.volume, 1);

  // Zero chunk ids are reserved for untracked chunks; an ack for one is
  // malformed.
  EXPECT_THROW(decode_ack(encode_ack(AckMsg{2, 0})), Error);
  EXPECT_THROW(decode_chunk(ack_frame), Error);
  EXPECT_THROW(decode_ack(nack_frame), Error);
}

TEST(Wire, ChunkCarriesStreamTag) {
  auto msg = sample_chunk(MsgType::kScatter);
  msg.stream = 17;
  const auto back = decode_chunk(encode_chunk(msg));
  EXPECT_EQ(back.stream, 17);
  EXPECT_EQ(decode_chunk_view(encode_chunk(msg)).stream, 17);
}

TEST(Wire, TelemetryRoundTrips) {
  TelemetryMsg msg;
  msg.from_node = 2;
  msg.window_s = 1.5;
  msg.compute_ms = 7.25;
  msg.images = 12;
  msg.links = {{4, 93.5, 2.25}, {0, 41.0, 0.5}};
  const auto frame = encode_telemetry(msg);
  EXPECT_EQ(peek_type(frame), MsgType::kTelemetry);
  const auto back = decode_telemetry(frame);
  EXPECT_EQ(back.from_node, 2);
  EXPECT_DOUBLE_EQ(back.window_s, 1.5);
  EXPECT_DOUBLE_EQ(back.compute_ms, 7.25);
  EXPECT_EQ(back.images, 12);
  ASSERT_EQ(back.links.size(), 2u);
  EXPECT_EQ(back.links[0].peer, 4);
  EXPECT_DOUBLE_EQ(back.links[0].mbps, 93.5);
  EXPECT_DOUBLE_EQ(back.links[0].mbytes, 2.25);
  EXPECT_EQ(back.links[1].peer, 0);
  // A telemetry report with no links (compute only) is legal.
  msg.links.clear();
  EXPECT_TRUE(decode_telemetry(encode_telemetry(msg)).links.empty());
  // Non-finite rates would poison every EWMA they touch: rejected.
  msg.links = {{1, std::numeric_limits<double>::infinity(), 1.0}};
  EXPECT_THROW(decode_telemetry(encode_telemetry(msg)), Error);
  msg.links = {{1, std::numeric_limits<double>::quiet_NaN(), 1.0}};
  EXPECT_THROW(decode_telemetry(encode_telemetry(msg)), Error);
}

TEST(Wire, TelemetryCarriesSteadyClockTimestamp) {
  // The sender's node-local steady clock rides along for clock-offset
  // estimation.
  TelemetryMsg msg;
  msg.from_node = 1;
  msg.window_s = 1.0;
  msg.steady_now_us = 123456789012345;
  const auto back = decode_telemetry(encode_telemetry(msg));
  EXPECT_EQ(back.steady_now_us, 123456789012345);
  // A negative clock reading is malformed.
  msg.steady_now_us = -1;
  EXPECT_THROW(decode_telemetry(encode_telemetry(msg)), Error);
}

TEST(Wire, ReconfigureRoundTrips) {
  ReconfigureMsg msg;
  msg.from_node = 4;
  msg.chunk_id = 9;
  msg.epoch = 2;
  msg.from_seq = 57;
  msg.stream = 5;  // per-tenant epoch lane
  msg.model_id = 2;
  msg.n_devices = 3;
  msg.volumes = {{0, 2}, {2, 5}};
  msg.cuts = {{0, 4, 9, 14}, {0, 3, 8, 12}};
  const auto frame = encode_reconfigure(msg);
  EXPECT_EQ(peek_type(frame), MsgType::kReconfigure);
  const auto back = decode_reconfigure(frame);
  EXPECT_EQ(back.from_node, 4);
  EXPECT_EQ(back.chunk_id, 9u);
  EXPECT_EQ(back.epoch, 2);
  EXPECT_EQ(back.from_seq, 57);
  EXPECT_EQ(back.stream, 5);
  EXPECT_EQ(back.model_id, 2);
  EXPECT_EQ(back.n_devices, 3);
  EXPECT_EQ(back.volumes, msg.volumes);
  EXPECT_EQ(back.cuts, msg.cuts);
  // Re-encode identity, like every other frame.
  EXPECT_EQ(encode_reconfigure(back), frame);
  // Untracked announcements are legal; tracked-by-nobody is not.
  msg.from_node = kNilNode;
  msg.chunk_id = 0;
  EXPECT_EQ(decode_reconfigure(encode_reconfigure(msg)).chunk_id, 0u);
  auto hostile = encode_reconfigure(msg);
  hostile[12] = 1;  // chunk_id lives at bytes 12-15: track without a sender
  EXPECT_THROW(decode_reconfigure(hostile), Error);
}

TEST(Wire, HeartbeatRoundTrips) {
  HeartbeatMsg msg;
  msg.from_node = 3;
  msg.hb_seq = 41;
  msg.steady_now_us = 987654321;
  const auto frame = encode_heartbeat(msg);
  EXPECT_EQ(peek_type(frame), MsgType::kHeartbeat);
  const auto back = decode_heartbeat(frame);
  EXPECT_EQ(back.from_node, 3);
  EXPECT_EQ(back.hb_seq, 41u);
  EXPECT_EQ(back.steady_now_us, 987654321);
  EXPECT_EQ(encode_heartbeat(back), frame);
  // Anonymous, zero-seq, or time-travelling heartbeats are malformed: a
  // lease renewal must name its node and be orderable.
  EXPECT_THROW(encode_heartbeat({kNilNode, 1, 0}), Error);
  EXPECT_THROW(encode_heartbeat({3, 0, 0}), Error);
  EXPECT_THROW(encode_heartbeat({3, 1, -5}), Error);
}

TEST(Wire, MembershipRoundTrips) {
  MembershipMsg msg;
  msg.from_node = 6;
  msg.chunk_id = 12;
  msg.cancel_below = 17;
  msg.resume_seq = 21;
  msg.died = {1, 4};
  msg.joined = {{2, 1u << 24}};
  const auto frame = encode_membership(msg);
  EXPECT_EQ(peek_type(frame), MsgType::kMembership);
  const auto back = decode_membership(frame);
  EXPECT_EQ(back.from_node, 6);
  EXPECT_EQ(back.chunk_id, 12u);
  EXPECT_EQ(back.cancel_below, 17);
  EXPECT_EQ(back.resume_seq, 21);
  EXPECT_EQ(back.died, msg.died);
  ASSERT_EQ(back.joined.size(), 1u);
  EXPECT_EQ(back.joined[0].node, 2);
  EXPECT_EQ(back.joined[0].id_base, 1u << 24);
  EXPECT_EQ(encode_membership(back), frame);

  // A membership change that changes nothing is malformed, as is a resume
  // watermark behind the cancellation floor.
  MembershipMsg empty;
  EXPECT_THROW(encode_membership(empty), Error);
  auto bad = msg;
  bad.resume_seq = bad.cancel_below - 1;
  EXPECT_THROW(encode_membership(bad), Error);
  // Untracked announcements are legal; tracked-by-nobody is not.
  msg.from_node = kNilNode;
  msg.chunk_id = 0;
  EXPECT_EQ(decode_membership(encode_membership(msg)).chunk_id, 0u);
  auto hostile = encode_membership(msg);
  hostile[12] = 1;  // chunk_id lives at bytes 12-15
  EXPECT_THROW(decode_membership(hostile), Error);
}

TEST(Wire, LaneEvictRoundTrips) {
  LaneEvictMsg msg;
  msg.from_node = 0;
  msg.chunk_id = 7;
  msg.stream = 3;
  msg.below_seq = 250;
  const auto frame = encode_lane_evict(msg);
  EXPECT_EQ(peek_type(frame), MsgType::kLaneEvict);
  const auto back = decode_lane_evict(frame);
  EXPECT_EQ(back.stream, 3);
  EXPECT_EQ(back.below_seq, 250);
  EXPECT_EQ(encode_lane_evict(back), frame);
  EXPECT_THROW(encode_lane_evict({0, 0, -1, 0}), Error);
  EXPECT_THROW(encode_lane_evict({0, 0, 0, -1}), Error);
}

TEST(Wire, RejectsEveryVersionButTheCurrentOne) {
  // Every node runs one binary and no frame is ever persisted, so decoding
  // accepts kWireVersion only. Any other version fails on the header,
  // before a single body field is read: every decoder names the version —
  // not a short or malformed body — even for a frame that is all header.
  ReconfigureMsg reconfigure;
  reconfigure.epoch = 1;
  reconfigure.n_devices = 1;
  reconfigure.volumes = {{0, 2}};
  reconfigure.cuts = {{0, 4}};
  MembershipMsg membership;
  membership.died = {1};
  TelemetryMsg telemetry;
  telemetry.from_node = 0;
  using Decode = void (*)(const Payload&);
  const std::vector<std::pair<Payload, Decode>> frames = {
      {encode_chunk(sample_chunk(MsgType::kGather)),
       [](const Payload& f) { decode_chunk(f); }},
      {encode_chunk(sample_chunk(MsgType::kScatter)),
       [](const Payload& f) { decode_chunk_view(f); }},
      {encode_halo_request({1, 1, 0, 2, 0}),
       [](const Payload& f) { decode_halo_request(f); }},
      {encode_shutdown(), [](const Payload& f) { peek_type(f); }},
      {encode_ack({1, 2}), [](const Payload& f) { decode_ack(f); }},
      {encode_nack({1, 2, 0}), [](const Payload& f) { decode_nack(f); }},
      {encode_telemetry(telemetry),
       [](const Payload& f) { decode_telemetry(f); }},
      {encode_reconfigure(reconfigure),
       [](const Payload& f) { decode_reconfigure(f); }},
      {encode_stream_hello({9000, 0, 0}),
       [](const Payload& f) { decode_stream_hello(f); }},
      {encode_stream_accept({0, 1}),
       [](const Payload& f) { decode_stream_accept(f); }},
      {encode_stream_reject({StreamRejectMsg::kBusy}),
       [](const Payload& f) { decode_stream_reject(f); }},
      {encode_stream_close({0}),
       [](const Payload& f) { decode_stream_close(f); }},
      {encode_dispatch({kNilNode, 0, 0, 0, 1}),
       [](const Payload& f) { decode_dispatch(f); }},
      {encode_heartbeat({0, 1, 0}),
       [](const Payload& f) { decode_heartbeat(f); }},
      {encode_membership(membership),
       [](const Payload& f) { decode_membership(f); }},
      {encode_lane_evict({kNilNode, 0, 0, 0}),
       [](const Payload& f) { decode_lane_evict(f); }},
  };
  const auto expect_version_error = [](Decode decode, const Payload& frame) {
    try {
      decode(frame);
      ADD_FAILURE() << "decoded a frame of a foreign wire version";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported version"),
                std::string::npos)
          << e.what();
    }
  };
  for (const std::uint16_t version :
       {0, 1, 2, 3, 4, 5, 7, 8, 0x7fff, 0xffff}) {
    ASSERT_NE(version, kWireVersion);
    for (const auto& [frame, decode] : frames) {
      decode(frame);  // the current version decodes
      Payload foreign = frame;
      std::memcpy(foreign.data() + 4, &version, sizeof version);
      expect_version_error(decode, foreign);
      expect_version_error(decode, Payload(foreign.begin(),
                                           foreign.begin() + 8));
    }
  }
}

TEST(Wire, RejectsBadMagic) {
  auto frame = encode_chunk(sample_chunk(MsgType::kScatter));
  frame[0] ^= 0xff;
  EXPECT_THROW(peek_type(frame), Error);
  EXPECT_THROW(decode_chunk(frame), Error);
}

TEST(Wire, RejectsWrongVersion) {
  auto frame = encode_chunk(sample_chunk(MsgType::kScatter));
  frame[4] = 0x7f;  // version lives at bytes 4-5
  EXPECT_THROW(decode_chunk(frame), Error);
}

TEST(Wire, RejectsUnknownType) {
  auto frame = encode_shutdown();
  frame[6] = 0x63;  // type lives at bytes 6-7
  EXPECT_THROW(peek_type(frame), Error);
}

TEST(Wire, RejectsTruncatedFrames) {
  const auto frame = encode_chunk(sample_chunk(MsgType::kHaloRows));
  for (const std::size_t cut : {std::size_t{0}, std::size_t{3}, std::size_t{7},
                                std::size_t{20}, frame.size() - 1}) {
    const Payload truncated(frame.begin(),
                            frame.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(decode_chunk(truncated), Error) << "cut at " << cut;
  }
}

TEST(Wire, RejectsTrailingGarbage) {
  auto frame = encode_chunk(sample_chunk(MsgType::kGather));
  frame.push_back(0x00);
  EXPECT_THROW(decode_chunk(frame), Error);

  auto req = encode_halo_request({0, 0, 0, 0, 0});
  req.push_back(0x00);
  EXPECT_THROW(decode_halo_request(req), Error);
}

TEST(Wire, RejectsHostileTensorExtents) {
  auto frame = encode_chunk(sample_chunk(MsgType::kScatter));
  // In a chunk h lives at bytes 36-39 (after seq, volume, row_offset,
  // from_node, chunk_id, epoch, stream); claim a huge height, same tiny
  // payload.
  frame[36] = 0xff;
  frame[37] = 0xff;
  frame[38] = 0xff;
  frame[39] = 0x00;
  EXPECT_THROW(decode_chunk(frame), Error);
  // A negative height must be rejected too, not wrapped into a size_t.
  frame[39] = 0xff;
  EXPECT_THROW(decode_chunk(frame), Error);
  // And a negative stream id (bytes 32-35) is malformed.
  frame = encode_chunk(sample_chunk(MsgType::kScatter));
  frame[32] = frame[33] = frame[34] = frame[35] = 0xff;
  EXPECT_THROW(decode_chunk(frame), Error);
}

TEST(Wire, RejectsTypeConfusion) {
  EXPECT_THROW(decode_chunk(encode_shutdown()), Error);
  EXPECT_THROW(decode_chunk(encode_halo_request({0, 0, 0, 0, 0})), Error);
  EXPECT_THROW(
      decode_halo_request(encode_chunk(sample_chunk(MsgType::kScatter))),
      Error);
}

TEST(Wire, EncodeRejectsInconsistentTensor) {
  auto msg = sample_chunk(MsgType::kScatter);
  msg.rows.data.pop_back();
  EXPECT_THROW(encode_chunk(msg), Error);
  msg = sample_chunk(MsgType::kScatter);
  msg.type = MsgType::kShutdown;  // not a chunk type
  EXPECT_THROW(encode_chunk(msg), Error);
}

}  // namespace
}  // namespace de::rpc
