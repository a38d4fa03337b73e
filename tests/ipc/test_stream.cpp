// Chunked streaming tests (ipc/stream.hpp): round trips across chunk
// boundaries under randomized sizes and windows, zero-length and
// single-chunk payloads staying plain frames, mid-stream peer death as a
// typed IoError, per-chunk and whole-payload tamper detection, chunk
// sequencing, interloper routing, flow-control credit validation, and the
// conversation-level property that a finished stream leaves no frame
// behind on either end of the socket.
#include "ipc/stream.hpp"

#include <gtest/gtest.h>
#include <poll.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/checksum.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "ipc/transport.hpp"

namespace dasc::ipc {
namespace {

/// A connected transport pair over a socketpair.
struct Pair {
  Pair() {
    const auto [a, b] = make_socketpair();
    left = std::make_unique<Transport>(a);
    right = std::make_unique<Transport>(b);
  }
  std::unique_ptr<Transport> left;
  std::unique_ptr<Transport> right;
};

std::string random_payload(Rng& rng, std::size_t n) {
  std::string bytes(n, '\0');
  for (char& c : bytes) {
    c = static_cast<char>(rng.uniform_index(256));  // embedded NULs welcome
  }
  return bytes;
}

/// Round-trip one message through send_message/recv_message with a
/// concurrent sender (the sender blocks for window credit, so the
/// receiver must run at the same time — exactly the production shape).
void round_trip(const Message& message, const StreamConfig& config) {
  Pair pair;
  std::thread sender(
      [&] { send_message(*pair.left, message, config); });
  const std::optional<Message> received =
      recv_message(*pair.right, config);
  sender.join();
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->type, message.type);
  EXPECT_EQ(received->payload, message.payload);
}

TEST(Stream, LargePayloadRoundTripsInChunks) {
  Rng rng(0x57E0);
  const StreamConfig config{/*chunk_bytes=*/64, /*window_chunks=*/2};
  // Sizes straddling every boundary: one byte over a chunk, exact
  // multiples, a partial tail, and far more chunks than the window.
  for (const std::size_t size : {65ul, 128ul, 129ul, 1000ul, 64ul * 40}) {
    Message message{MessageType::kFetchData, random_payload(rng, size)};
    round_trip(message, config);
  }
}

TEST(Stream, ZeroLengthAndSingleChunkPayloadsShipAsPlainFrames) {
  const StreamConfig config{/*chunk_bytes=*/64, /*window_chunks=*/2};
  for (const std::size_t size : {0ul, 1ul, 63ul, 64ul}) {
    Pair pair;
    Message message{MessageType::kMapDone, std::string(size, 'x')};
    send_message(*pair.left, message, config);
    // Observe the wire directly: at or under chunk_bytes there is no
    // chunking — one frame of the final type, never kDataChunk.
    const auto raw = pair.right->recv();
    ASSERT_TRUE(raw.has_value()) << "size=" << size;
    EXPECT_EQ(raw->type, MessageType::kMapDone);
    EXPECT_EQ(raw->payload, message.payload);
  }
}

TEST(Stream, RandomSizesChunkSizesAndWindowsRoundTrip) {
  Rng rng(0xD15C);
  for (int round = 0; round < 30; ++round) {
    const StreamConfig config{1 + rng.uniform_index(256),
                              1 + rng.uniform_index(5)};
    const std::size_t size = rng.uniform_index(1500);
    Message message{MessageType::kReducePullDone,
                    random_payload(rng, size)};
    round_trip(message, config);
  }
}

TEST(Stream, PeerDeathMidStreamIsIoError) {
  Pair pair;
  // One chunk of a declared-larger stream, then the peer vanishes: the
  // receiver must get the typed mid-stream error, never a short payload.
  pair.left->send(encode_chunk(MessageType::kFetchData, /*total_bytes=*/100,
                               /*chunk_index=*/0, "first 32 bytes..."));
  pair.left->close();
  EXPECT_THROW(recv_message(*pair.right), IoError);
}

TEST(Stream, OutOfSequenceChunkIsIoError) {
  Pair pair;
  pair.left->send(
      encode_chunk(MessageType::kFetchData, 100, 0, "chunk zero"));
  pair.left->send(
      encode_chunk(MessageType::kFetchData, 100, 2, "chunk two?"));
  EXPECT_THROW(recv_message(*pair.right), IoError);
}

TEST(Stream, InconsistentChunkHeaderIsIoError) {
  Pair pair;
  pair.left->send(
      encode_chunk(MessageType::kFetchData, 100, 0, "total=100"));
  pair.left->send(
      encode_chunk(MessageType::kFetchData, 200, 1, "total=200"));
  EXPECT_THROW(recv_message(*pair.right), IoError);
}

TEST(Stream, ChunksExceedingDeclaredTotalAreIoError) {
  Pair pair;
  pair.left->send(encode_chunk(MessageType::kFetchData, /*total_bytes=*/4,
                               0, "way more than four bytes"));
  EXPECT_THROW(recv_message(*pair.right), IoError);
}

TEST(Stream, OversizedStreamDeclarationIsIoError) {
  Pair pair;
  // Above the 4 GiB stream cap: rejected from the first chunk header,
  // before any allocation approaches the declared size.
  pair.left->send(encode_chunk(MessageType::kFetchData,
                               (std::uint64_t{1} << 32) + 1, 0, "x"));
  EXPECT_THROW(recv_message(*pair.right), IoError);
}

TEST(Stream, TamperedTrailerCrcIsIoError) {
  Pair pair;
  const std::string payload = "reassembled payload under test";
  pair.left->send(encode_chunk(MessageType::kFetchData, payload.size(), 0,
                               payload));
  pair.left->send(encode_stream_end(MessageType::kFetchData, payload.size(),
                                    /*chunk_count=*/1,
                                    crc32(payload) ^ 0x1));
  EXPECT_THROW(recv_message(*pair.right), IoError);
}

TEST(Stream, WrongTrailerChunkCountIsIoError) {
  Pair pair;
  const std::string payload = "one chunk, trailer claims two";
  pair.left->send(encode_chunk(MessageType::kFetchData, payload.size(), 0,
                               payload));
  pair.left->send(encode_stream_end(MessageType::kFetchData, payload.size(),
                                    /*chunk_count=*/2, crc32(payload)));
  EXPECT_THROW(recv_message(*pair.right), IoError);
}

TEST(Stream, ShortPayloadAtTrailerIsIoError) {
  Pair pair;
  const std::string payload = "only half arrives";
  pair.left->send(encode_chunk(MessageType::kFetchData,
                               /*total_bytes=*/payload.size() * 2, 0,
                               payload));
  pair.left->send(encode_stream_end(MessageType::kFetchData,
                                    payload.size() * 2, 1, crc32(payload)));
  EXPECT_THROW(recv_message(*pair.right), IoError);
}

TEST(Stream, BareHeartbeatMidStreamIsSkipped) {
  Pair pair;
  const std::string payload = "heartbeats may interleave";
  pair.left->send(encode_chunk(MessageType::kFetchData, payload.size(), 0,
                               payload));
  pair.left->send({MessageType::kHeartbeat, {}});
  pair.left->send(encode_stream_end(MessageType::kFetchData, payload.size(),
                                    1, crc32(payload)));
  const auto received = recv_message(*pair.right);
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->payload, payload);
}

TEST(Stream, InterloperReceivesUnrelatedMidStreamFrames) {
  Pair pair;
  const std::string payload = "interloper drains protocol frames";
  pair.left->send(encode_chunk(MessageType::kFetchData, payload.size(), 0,
                               payload));
  pair.left->send({MessageType::kPullFailed, "unrelated"});
  pair.left->send(encode_stream_end(MessageType::kFetchData, payload.size(),
                                    1, crc32(payload)));
  std::vector<Message> seen;
  const auto received = recv_message(
      *pair.right, {}, [&](const Message& m) { seen.push_back(m); });
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->payload, payload);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].type, MessageType::kPullFailed);
  EXPECT_EQ(seen[0].payload, "unrelated");
}

TEST(Stream, UnexpectedFrameMidStreamWithoutInterloperIsIoError) {
  Pair pair;
  pair.left->send(encode_chunk(MessageType::kFetchData, 100, 0, "opening"));
  pair.left->send({MessageType::kMapAssign, "real protocol traffic"});
  EXPECT_THROW(recv_message(*pair.right), IoError);
}

TEST(Stream, PlainFramesPassThroughUntouched) {
  Pair pair;
  pair.left->send({MessageType::kPullResume, "not a chunk"});
  const auto received = recv_message(*pair.right);
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->type, MessageType::kPullResume);
  EXPECT_EQ(received->payload, "not a chunk");
}

TEST(Stream, OutOfSequenceCreditIsIoErrorAtTheSender) {
  Pair pair;
  // window=1: the sender blocks for credit after its first chunk. A bogus
  // ack (acked=0, i.e. no forward progress) must be the typed error.
  const StreamConfig config{/*chunk_bytes=*/4, /*window_chunks=*/1};
  Message message{MessageType::kFetchData, std::string(64, 'z')};
  std::atomic<bool> threw{false};
  std::thread sender([&] {
    try {
      send_message(*pair.left, message, config);
    } catch (const IoError&) {
      threw = true;
    }
  });
  ASSERT_TRUE(pair.right->recv().has_value());  // chunk 0 arrives
  WireWriter bogus;
  bogus.u64(0);
  pair.right->send({MessageType::kChunkAck, bogus.take()});
  sender.join();
  EXPECT_TRUE(threw);
}

TEST(Stream, SenderSeesPeerDeathWhileAwaitingCredit) {
  Pair pair;
  const StreamConfig config{/*chunk_bytes=*/4, /*window_chunks=*/1};
  Message message{MessageType::kFetchData, std::string(64, 'z')};
  std::atomic<bool> threw{false};
  std::thread sender([&] {
    try {
      send_message(*pair.left, message, config);
    } catch (const IoError&) {
      threw = true;
    }
  });
  ASSERT_TRUE(pair.right->recv().has_value());  // chunk 0 arrives
  pair.right->close();  // peer dies instead of granting credit
  sender.join();
  EXPECT_TRUE(threw);
}

/// Bytes waiting to be read on `transport`, observed without blocking.
bool has_pending_bytes(const Transport& transport) {
  pollfd pending{transport.fd(), POLLIN, 0};
  return ::poll(&pending, 1, 0) > 0;
}

TEST(Stream, FinishedStreamLeavesNothingOnTheWire) {
  // The conversation-level property: a completed send/recv pair leaves the
  // socket idle at a message boundary in both directions, so the next
  // request/reply on the same socket round-trips. An ack for the final
  // chunk (payloads of exactly window_chunks x n chunks) would stay unread
  // on the sender's end and be taken for the next reply.
  for (const StreamConfig config :
       {StreamConfig{/*chunk_bytes=*/64, /*window_chunks=*/4},
        StreamConfig{/*chunk_bytes=*/64, /*window_chunks=*/1},
        StreamConfig{}}) {
    for (std::size_t chunks = 0; chunks <= 20; ++chunks) {
      SCOPED_TRACE("chunk_bytes=" + std::to_string(config.chunk_bytes) +
                   " window=" + std::to_string(config.window_chunks) +
                   " chunks=" + std::to_string(chunks));
      Pair pair;
      const Message message{MessageType::kFetchData,
                            std::string(chunks * config.chunk_bytes, 'p')};
      std::thread sender(
          [&] { send_message(*pair.left, message, config); });
      const std::optional<Message> received =
          recv_message(*pair.right, config);
      sender.join();
      ASSERT_TRUE(received.has_value());
      EXPECT_EQ(received->payload, message.payload);
      EXPECT_FALSE(has_pending_bytes(*pair.left));
      EXPECT_FALSE(has_pending_bytes(*pair.right));

      pair.right->send({MessageType::kFetchPart, "request"});
      const std::optional<Message> request = recv_message(*pair.left, config);
      ASSERT_TRUE(request.has_value());
      EXPECT_EQ(request->type, MessageType::kFetchPart);
      pair.left->send({MessageType::kFetchData, "reply"});
      const std::optional<Message> reply = recv_message(*pair.right, config);
      ASSERT_TRUE(reply.has_value());
      EXPECT_EQ(reply->type, MessageType::kFetchData);
      EXPECT_EQ(reply->payload, "reply");
    }
  }
}

}  // namespace
}  // namespace dasc::ipc
