#include "net/protocol.h"

#include <utility>

#include "util/check.h"

namespace prio::net {

namespace {

void putU32(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
  out.push_back(static_cast<char>((v >> 16) & 0xff));
  out.push_back(static_cast<char>((v >> 24) & 0xff));
}

void putU64(std::string& out, std::uint64_t v) {
  putU32(out, static_cast<std::uint32_t>(v & 0xffffffffu));
  putU32(out, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t getU32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t getU64(const unsigned char* p) {
  return static_cast<std::uint64_t>(getU32(p)) |
         (static_cast<std::uint64_t>(getU32(p + 4)) << 32);
}

}  // namespace

const char* statusName(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kDegraded: return "degraded";
    case Status::kRejected: return "rejected";
    case Status::kShed: return "shed";
    case Status::kFailed: return "failed";
    case Status::kProtocolError: return "protocol_error";
    case Status::kExpired: return "expired";
  }
  return "unknown";
}

void encodeFrame(const Frame& frame, std::string& out,
                 std::uint32_t max_payload) {
  PRIO_CHECK_MSG(frame.payload.size() <= max_payload,
                 "frame payload " << frame.payload.size()
                                  << " bytes exceeds the " << max_payload
                                  << "-byte cap");
  PRIO_CHECK_MSG(frame.version == kVersion3,
                 "cannot encode protocol version "
                     << static_cast<int>(frame.version));
  PRIO_CHECK_MSG(static_cast<std::uint8_t>(frame.payload_kind) <=
                     kMaxPayloadKind,
                 "unknown payload kind "
                     << static_cast<int>(frame.payload_kind));
  PRIO_CHECK_MSG((frame.flags & ~kKnownFlags) == 0,
                 "reserved flag bits set: " << static_cast<int>(frame.flags));
  const std::uint8_t flags =
      frame.deadline_ms > 0 ? kFlagDeadline : std::uint8_t{0};
  out.reserve(out.size() + kHeaderSize + (flags & kFlagDeadline ? 4 : 0) +
              frame.payload.size());
  putU32(out, kMagic);
  out.push_back(static_cast<char>(kVersion3));
  out.push_back(static_cast<char>(frame.type));
  out.push_back(static_cast<char>(frame.status));
  out.push_back(static_cast<char>(flags));
  putU64(out, frame.request_id);
  putU64(out, frame.trace_id);
  putU32(out, frame.tenant);
  out.push_back(static_cast<char>(frame.payload_kind));
  out.append(3, '\0');  // reserved
  putU32(out, static_cast<std::uint32_t>(frame.payload.size()));
  if (flags & kFlagDeadline) putU32(out, frame.deadline_ms);
  out.append(frame.payload);
}

void FrameDecoder::feed(const char* data, std::size_t n) {
  // Compact the consumed prefix before it dominates the buffer; amortized
  // O(1) per byte.
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, n);
}

FrameDecoder::Result FrameDecoder::next(Frame& out) {
  if (failed_) return Result::kError;
  // The first 8 bytes (magic, version, type, status, flags) validate
  // before the rest of the header is buffered, so a peer speaking
  // another version fails fast even when its frame is shorter than ours.
  if (buf_.size() - pos_ < 8) return Result::kNeedMore;

  const auto fail = [this](std::string why) {
    failed_ = true;
    error_ = std::move(why);
    return Result::kError;
  };
  const auto* h = reinterpret_cast<const unsigned char*>(buf_.data() + pos_);
  if (getU32(h) != kMagic) return fail("bad magic");
  const std::uint8_t version = h[4];
  if (version != kVersion3) {
    return fail("unsupported protocol version " + std::to_string(version));
  }
  const std::uint8_t type = h[5];
  if (type < static_cast<std::uint8_t>(FrameType::kRequest) ||
      type > static_cast<std::uint8_t>(FrameType::kBatchResponse)) {
    return fail("unknown frame type " + std::to_string(type));
  }
  const bool batch =
      type == static_cast<std::uint8_t>(FrameType::kBatchRequest) ||
      type == static_cast<std::uint8_t>(FrameType::kBatchResponse);
  const std::uint8_t status = h[6];
  if (status > static_cast<std::uint8_t>(Status::kExpired)) {
    return fail("unknown status " + std::to_string(status));
  }
  const std::uint8_t flags = h[7];
  if ((flags & ~kKnownFlags) != 0) return fail("nonzero reserved flags");
  if (buf_.size() - pos_ < kHeaderSize) return Result::kNeedMore;
  const std::uint8_t kind = h[28];
  if (kind > kMaxPayloadKind) {
    return fail("unknown payload kind " + std::to_string(kind));
  }
  if (h[29] != 0 || h[30] != 0 || h[31] != 0) {
    return fail("nonzero reserved header bytes");
  }
  // The length is validated BEFORE waiting for the payload, so a corrupt
  // prefix fails fast instead of stalling the connection forever. Batch
  // frames get their own cap — the type byte was read above, so the
  // right limit gates the right frames.
  const std::uint32_t len = getU32(h + 32);
  const std::uint32_t cap = batch ? max_batch_payload_ : max_payload_;
  if (len > cap) {
    return fail("payload of " + std::to_string(len) + " bytes exceeds the " +
                std::to_string(cap) + "-byte cap");
  }
  const std::size_t extra = (flags & kFlagDeadline) ? 4 : 0;
  if (buf_.size() - pos_ < kHeaderSize + extra + len) return Result::kNeedMore;

  out.version = version;
  out.type = static_cast<FrameType>(type);
  out.status = static_cast<Status>(status);
  out.flags = flags;
  out.request_id = getU64(h + 8);
  out.trace_id = getU64(h + 16);
  out.tenant = getU32(h + 24);
  out.payload_kind = static_cast<PayloadKind>(kind);
  out.deadline_ms = (flags & kFlagDeadline) ? getU32(h + kHeaderSize) : 0;
  out.payload.assign(buf_, pos_ + kHeaderSize + extra, len);
  pos_ += kHeaderSize + extra + len;
  return Result::kFrame;
}

namespace {

/// Shared walk over a batch envelope. `item_header` is the per-item
/// prefix before the u32 length (1 byte kind on requests; status + kind
/// on responses). Calls `emit(p, item_header_bytes, len)` per item with
/// `p` at the item start. Returns false + error on any structural
/// violation; never throws.
template <typename Emit>
bool walkBatch(const std::string& payload, std::size_t item_header,
               std::string& error, Emit&& emit) {
  const auto* base = reinterpret_cast<const unsigned char*>(payload.data());
  if (payload.size() < 4) {
    error = "batch envelope truncated before count";
    return false;
  }
  const std::uint32_t count = getU32(base);
  std::size_t off = 4;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (payload.size() - off < item_header + 4) {
      error = "batch item " + std::to_string(i) + " truncated";
      return false;
    }
    const std::uint32_t len = getU32(base + off + item_header);
    if (payload.size() - off - item_header - 4 < len) {
      error = "batch item " + std::to_string(i) + " truncated";
      return false;
    }
    if (!emit(base + off, i, len)) return false;
    off += item_header + 4 + len;
  }
  if (off != payload.size()) {
    error = "trailing bytes after " + std::to_string(count) + " batch items";
    return false;
  }
  return true;
}

}  // namespace

std::string encodeBatchRequest(const std::vector<BatchItem>& items) {
  std::size_t total = 4;
  for (const BatchItem& item : items) total += 5 + item.bytes.size();
  std::string out;
  out.reserve(total);
  putU32(out, static_cast<std::uint32_t>(items.size()));
  for (const BatchItem& item : items) {
    out.push_back(static_cast<char>(item.kind));
    putU32(out, static_cast<std::uint32_t>(item.bytes.size()));
    out.append(item.bytes);
  }
  return out;
}

bool decodeBatchRequest(const std::string& payload,
                        std::uint32_t max_item_payload,
                        std::vector<BatchItem>& out, std::string& error) {
  out.clear();
  return walkBatch(
      payload, 1, error,
      [&](const unsigned char* p, std::uint32_t i, std::uint32_t len) {
        if (p[0] > kMaxPayloadKind) {
          error = "batch item " + std::to_string(i) +
                  " has unknown payload kind " + std::to_string(p[0]);
          return false;
        }
        if (len > max_item_payload) {
          error = "batch item " + std::to_string(i) + " of " +
                  std::to_string(len) + " bytes exceeds the " +
                  std::to_string(max_item_payload) + "-byte item cap";
          return false;
        }
        out.push_back({static_cast<PayloadKind>(p[0]),
                       std::string(reinterpret_cast<const char*>(p + 5), len)});
        return true;
      });
}

std::string encodeBatchResponse(const std::vector<BatchItemReply>& items) {
  std::size_t total = 4;
  for (const BatchItemReply& item : items) total += 6 + item.payload.size();
  std::string out;
  out.reserve(total);
  putU32(out, static_cast<std::uint32_t>(items.size()));
  for (const BatchItemReply& item : items) {
    out.push_back(static_cast<char>(item.status));
    out.push_back(static_cast<char>(item.kind));
    putU32(out, static_cast<std::uint32_t>(item.payload.size()));
    out.append(item.payload);
  }
  return out;
}

bool decodeBatchResponse(const std::string& payload,
                         std::vector<BatchItemReply>& out,
                         std::string& error) {
  out.clear();
  return walkBatch(
      payload, 2, error,
      [&](const unsigned char* p, std::uint32_t i, std::uint32_t len) {
        if (p[0] > static_cast<std::uint8_t>(Status::kExpired)) {
          error = "batch item " + std::to_string(i) +
                  " has unknown status " + std::to_string(p[0]);
          return false;
        }
        if (p[1] > kMaxPayloadKind) {
          error = "batch item " + std::to_string(i) +
                  " has unknown payload kind " + std::to_string(p[1]);
          return false;
        }
        BatchItemReply item;
        item.status = static_cast<Status>(p[0]);
        item.kind = static_cast<PayloadKind>(p[1]);
        item.payload.assign(reinterpret_cast<const char*>(p + 6), len);
        out.push_back(std::move(item));
        return true;
      });
}

}  // namespace prio::net
