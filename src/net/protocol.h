// The priod wire protocol: length-prefixed binary frames over TCP.
//
// Every frame is a fixed 36-byte little-endian header followed by an
// opaque payload (DESIGN.md §11 has the table):
//
//   offset  size  field
//        0     4  magic         0x4F495250 ("PRIO" as ASCII bytes)
//        4     1  version       3 (kVersion3); any other value is a
//                               protocol error
//        5     1  type          FrameType (request / response / batch)
//        6     1  status        Status (responses; 0 on requests)
//        7     1  flags         bit 0 = kFlagDeadline; other bits
//                               reserved, must be 0
//        8     8  request_id    caller-chosen; echoed verbatim in the
//                               response so pipelined replies correlate
//       16     8  trace_id      request: client trace id to adopt (0 =
//                               none); response: the server-side trace id
//       24     4  tenant_id     tenant the request is billed to (0 =
//                               default); echoed in the response
//       28     1  payload_kind  PayloadKind: how to interpret the payload
//                               bytes (DAGMan text / binary CSR)
//       29     3  reserved      must be 0
//       32     4  payload_len   bytes of payload following the header
//
// When kFlagDeadline is set on a request, a 4-byte little-endian
// deadline_ms field follows the header, BEFORE the payload: the
// whole-request budget in milliseconds, measured from the instant the
// client encoded the frame. The server decrements it by observed queue
// wait and sheds the request (Status::kExpired) once the budget is gone,
// so a deadline crosses the process boundary instead of dying at the
// socket. payload_len still counts only payload bytes.
//
// Replies match requests by request_id only; a server answers pipelined
// requests in completion order, not submission order.
//
// Single-request payloads carry one dag in the payload_kind encoding
// (kDagmanText: DAGMan input-file text; kBinaryCsr: the BDAG layout in
// dag/csr.h). Response payloads carry the instrumented DAGMan text or
// BPRI priority table (kOk / kDegraded) or an error message (everything
// else). kBatchRequest/kBatchResponse frames carry a batch envelope —
// many dags per round-trip with a per-item status in the reply; see
// encodeBatchRequest() below. Payloads above the decoder's
// cap are a protocol error — the peer replies Status::kProtocolError
// and closes, so a corrupt length prefix can never make the server
// buffer gigabytes. Batch frames get their own (larger) cap so a batch
// can exceed the single-dag limit deliberately.
//
// Encoding is explicit byte-at-a-time little-endian, so the wire format
// is identical across architectures and independent of struct layout.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace prio::net {

inline constexpr std::uint32_t kMagic = 0x4F495250u;  // "PRIO"
/// The one protocol version (the header byte every frame carries).
inline constexpr std::uint8_t kVersion3 = 3;
inline constexpr std::size_t kHeaderSize = 36;
/// Default payload cap (64 MiB) — larger than any plausible DAGMan file
/// (SDSS, the paper's biggest dag, serializes to ~4 MiB). Configurable
/// per server/client; batch frames get a separate cap.
inline constexpr std::uint32_t kMaxPayload = 64u << 20;
/// Flag bit: a 4-byte deadline_ms field follows the header.
inline constexpr std::uint8_t kFlagDeadline = 0x01;
/// All flag bits the decoder understands; anything else is a protocol
/// error (reserved bits must be zero until a version assigns them).
inline constexpr std::uint8_t kKnownFlags = kFlagDeadline;

enum class FrameType : std::uint8_t {
  kRequest = 1,
  kResponse = 2,
  /// Payload is a batch envelope of independent dag items.
  kBatchRequest = 3,
  /// Payload is a batch envelope of per-item replies.
  kBatchResponse = 4,
};

/// How the payload bytes of a frame (or batch item) are encoded.
/// Mirrors service::PayloadKind; rides the wire as the payload_kind
/// header byte.
enum class PayloadKind : std::uint8_t {
  kDagmanText = 0,  ///< DAGMan input-file text (replies: instrumented text)
  kBinaryCsr = 1,   ///< BDAG binary dag (replies: BPRI priority table)
};

inline constexpr std::uint8_t kMaxPayloadKind =
    static_cast<std::uint8_t>(PayloadKind::kBinaryCsr);

/// Response disposition. Mirrors service::RequestStatus plus the
/// wire-only kProtocolError.
enum class Status : std::uint8_t {
  kOk = 0,
  kDegraded = 1,       ///< deadline hit; payload is the fallback schedule
  kRejected = 2,       ///< shed by admission gate, quota, or backpressure
  kShed = 3,           ///< queue-wait deadline exceeded
  kFailed = 4,         ///< parse/cycle error; payload is the message
  kProtocolError = 5,  ///< malformed frame; connection closes after this
  kExpired = 6,        ///< wire deadline spent before compute could start
};

[[nodiscard]] const char* statusName(Status s);

struct Frame {
  /// The header's version byte. kVersion3 is the only value that
  /// encodes or decodes.
  std::uint8_t version = kVersion3;
  FrameType type = FrameType::kRequest;
  Status status = Status::kOk;
  std::uint8_t flags = 0;
  std::uint64_t request_id = 0;
  std::uint64_t trace_id = 0;
  std::uint32_t tenant = 0;
  /// Whole-request budget in milliseconds (0 = none). Rides the wire as
  /// the optional kFlagDeadline field.
  std::uint32_t deadline_ms = 0;
  /// Meaningless on batch frames (each item carries its own kind inside
  /// the envelope).
  PayloadKind payload_kind = PayloadKind::kDagmanText;
  std::string payload;
};

/// Appends the encoded frame to `out`. The kFlagDeadline bit is derived
/// from deadline_ms — callers never set `flags` themselves. Throws
/// util::Error when the payload exceeds `max_payload`, when
/// Frame::version is not kVersion3, when the payload kind is unknown, or
/// when reserved flag bits are set.
void encodeFrame(const Frame& frame, std::string& out,
                 std::uint32_t max_payload = kMaxPayload);

// ---------------------------------------------------------------------
// Batch envelope (FrameType::kBatchRequest / kBatchResponse).
//
// Request payload:   u32 count, then per item:
//                      u8 kind (PayloadKind), u32 len, len bytes
// Response payload:  u32 count, then per item, in request order:
//                      u8 status (Status), u8 kind, u32 len, len bytes
//
// Items are independent dags; the reply carries one entry per item so a
// malformed or expired item degrades only itself, never the batch. The
// envelope itself is all-or-nothing: a truncated envelope, an unknown
// item kind or an item over the single-frame cap fails the whole frame.
// ---------------------------------------------------------------------

struct BatchItem {
  PayloadKind kind = PayloadKind::kDagmanText;
  std::string bytes;
};

struct BatchItemReply {
  Status status = Status::kOk;
  PayloadKind kind = PayloadKind::kDagmanText;
  /// Instrumented text / BPRI table (kOk, kDegraded) or error message.
  std::string payload;

  /// True when `payload` is a usable schedule rather than an error.
  [[nodiscard]] bool usable() const {
    return status == Status::kOk || status == Status::kDegraded;
  }
};

/// Serializes `items` into a kBatchRequest payload.
[[nodiscard]] std::string encodeBatchRequest(
    const std::vector<BatchItem>& items);

/// Parses a kBatchRequest payload. Returns false (with `error` set) on
/// any structural violation — truncation, trailing bytes, unknown kind —
/// or on an item larger than `max_item_payload`. Never throws: batch
/// envelopes arrive from the network. The server decodes each envelope
/// once, on arrival, so a malformed one is answered kFailed before it
/// holds an admission slot.
[[nodiscard]] bool decodeBatchRequest(const std::string& payload,
                                      std::uint32_t max_item_payload,
                                      std::vector<BatchItem>& out,
                                      std::string& error);

/// Serializes per-item replies into a kBatchResponse payload.
[[nodiscard]] std::string encodeBatchResponse(
    const std::vector<BatchItemReply>& items);

/// Parses a kBatchResponse payload. Returns false (with `error` set) on
/// any structural violation; never throws.
[[nodiscard]] bool decodeBatchResponse(const std::string& payload,
                                       std::vector<BatchItemReply>& out,
                                       std::string& error);

/// Incremental frame parser for a byte stream. Feed bytes as they
/// arrive; next() yields complete frames without copying the stream
/// twice. A protocol violation (bad magic, unknown version/type/kind,
/// nonzero reserved bits, oversized payload) latches the decoder into
/// the error state — the connection is beyond recovery because frame
/// boundaries are lost.
///
/// Two caps apply: `max_payload` for single-request/response frames and
/// `max_batch_payload` for batch frames (0 = same as max_payload), so a
/// batch can deliberately exceed the single-dag limit. The frame type
/// is read before the length, so the right cap gates the right frames.
class FrameDecoder {
 public:
  enum class Result {
    kFrame,     ///< one frame extracted into `out`
    kNeedMore,  ///< no complete frame buffered yet
    kError,     ///< protocol violation; see error()
  };

  explicit FrameDecoder(std::uint32_t max_payload = kMaxPayload,
                        std::uint32_t max_batch_payload = 0)
      : max_payload_(max_payload),
        max_batch_payload_(max_batch_payload == 0 ? max_payload
                                                  : max_batch_payload) {}

  /// Appends raw bytes from the stream.
  void feed(const char* data, std::size_t n);

  /// Extracts the next complete frame. Call until kNeedMore to drain all
  /// frames that one feed() completed.
  [[nodiscard]] Result next(Frame& out);

  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] bool failed() const { return failed_; }
  /// Bytes buffered but not yet consumed by next().
  [[nodiscard]] std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::uint32_t max_payload_;
  std::uint32_t max_batch_payload_;
  std::string buf_;
  std::size_t pos_ = 0;  ///< consumed prefix, compacted when large
  std::string error_;
  bool failed_ = false;
};

}  // namespace prio::net
