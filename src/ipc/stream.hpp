// Chunked streaming framing for large logical messages.
//
// A logical message whose payload exceeds StreamConfig::chunk_bytes is not
// shipped as one giant frame (which would buffer the whole payload at both
// ends of the socket and cap out at kMaxPayloadBytes); it streams as a
// sequence of bounded frames:
//
//   kDataChunk  payload = {u32 final_type, u64 total_bytes,
//                          u64 chunk_index, bytes chunk}
//   ...                                           (chunk_index 0, 1, 2, ...)
//   kDataEnd    payload = {u32 final_type, u64 total_bytes,
//                          u64 chunk_count, u32 payload_crc32}
//
// Every kDataChunk frame carries the transport's own per-frame CRC-32 (a
// flipped bit in any chunk is caught on receipt), and kDataEnd carries a
// CRC over the whole reassembled payload, so a pathologically reordered or
// dropped chunk cannot reassemble silently. The sender blocks for credit
// once StreamConfig::window_chunks chunks are unacknowledged, bounding
// in-flight bytes at window_chunks x chunk_bytes regardless of payload
// size. The receiver grants exactly that credit: kChunkAck{chunks_received}
// after every window_chunks-th chunk, and only while more chunks are due.
// It never acks the final chunk, so a finished stream leaves no frame
// behind on either end of the socket.
//
// send_message / recv_message are drop-in wrappers over Transport::send /
// Transport::recv: payloads at or under chunk_bytes go as one plain frame,
// and recv_message returns any non-chunk frame untouched. A peer that dies
// mid-stream surfaces as a typed IoError ("peer died mid-stream"), never a
// hang or a short payload; unexpected frame types mid-stream are IoError
// too. `interloper` lets the caller consume unrelated frames that may
// interleave with a stream (the supervisor drains worker kHeartbeat frames
// through it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>

#include "ipc/message.hpp"

namespace dasc::ipc {
class Transport;
}  // namespace dasc::ipc

namespace dasc::ipc {

/// Chunk geometry. Every runtime endpoint uses the defaults; tests pass
/// smaller values to exercise chunking cheaply. Both ends of a stream
/// must agree on window_chunks (the receiver's ack cadence is the
/// sender's credit window).
struct StreamConfig {
  /// Payloads larger than this stream as kDataChunk frames of this size.
  std::size_t chunk_bytes = 256 * 1024;
  /// Chunks in flight before the sender blocks for a kChunkAck.
  std::size_t window_chunks = 4;
};

/// Frames a single kDataChunk. Exposed for tests that tamper with streams.
Message encode_chunk(MessageType final_type, std::uint64_t total_bytes,
                     std::uint64_t chunk_index, std::string_view chunk);

/// Frames the kDataEnd trailer. Exposed for tests.
Message encode_stream_end(MessageType final_type, std::uint64_t total_bytes,
                          std::uint64_t chunk_count, std::uint32_t crc);

/// Send `message`, streaming it as chunks when the payload exceeds
/// config.chunk_bytes. Blocks for kChunkAck credit per the window;
/// `interloper` (may be null) is handed any frame received while waiting
/// for credit that is not a kChunkAck — unknown frames without an
/// interloper are IoError. Throws IoError when the peer dies.
void send_message(Transport& transport, const Message& message,
                  const StreamConfig& config = {},
                  const std::function<void(const Message&)>& interloper =
                      nullptr);

/// Receive one logical message, reassembling chunked streams. Plain frames
/// return as-is; a kDataChunk opener runs the assembly loop (acking every
/// window_chunks-th chunk short of the declared total) until kDataEnd, verifying chunk sequencing,
/// declared sizes, and the whole-payload CRC. nullopt only on clean EOF
/// *between* logical messages; EOF mid-stream is IoError. `interloper`
/// (may be null) is handed kHeartbeat or other unrelated frames that
/// arrive mid-stream — without an interloper, only kHeartbeat is skipped.
std::optional<Message> recv_message(
    Transport& transport, const StreamConfig& config = {},
    const std::function<void(const Message&)>& interloper = nullptr);

}  // namespace dasc::ipc
