// semperm/match/request.hpp
//
// The request object a queue entry points at — the descriptor MPI keeps per
// pending receive or buffered unexpected message. Entries carry only the
// match identity; everything bulky (buffer pointer, completion state,
// sequence number) lives here, off the match-critical cache lines, which is
// the point of the paper's 24-byte packed entries.
#pragma once

#include <cstddef>
#include <cstdint>

#include "match/envelope.hpp"

namespace semperm::match {

enum class RequestKind : std::uint8_t { kRecv, kUnexpected };

class MatchRequest {
 public:
  MatchRequest() = default;
  MatchRequest(RequestKind kind, std::uint64_t seq) : kind_(kind), seq_(seq) {}

  RequestKind kind() const { return kind_; }

  /// Global posting/arrival sequence number; used by binned queue
  /// structures to restore total FIFO order across bins.
  std::uint64_t seq() const { return seq_; }

  bool complete() const { return complete_; }
  void mark_complete() { complete_ = true; }

  /// Payload bookkeeping (the simulated runtime moves bytes; the matching
  /// study only needs the size).
  void set_payload(void* buffer, std::size_t bytes) {
    buffer_ = buffer;
    bytes_ = bytes;
  }
  void* buffer() const { return buffer_; }
  std::size_t bytes() const { return bytes_; }

  /// The envelope the request matched with (filled at completion).
  void set_matched(const Envelope& env) { matched_ = env; }
  const Envelope& matched() const { return matched_; }

  /// User cookie for callers that need to map a completion back to their
  /// own state (the simulated runtime stores its operation id here).
  void set_cookie(std::uint64_t c) { cookie_ = c; }
  std::uint64_t cookie() const { return cookie_; }

  /// Engine tick at which this request was queued (for dwell statistics).
  void set_enqueued_tick(std::uint64_t t) { enqueued_tick_ = t; }
  std::uint64_t enqueued_tick() const { return enqueued_tick_; }

 private:
  RequestKind kind_ = RequestKind::kRecv;
  std::uint64_t seq_ = 0;
  bool complete_ = false;
  void* buffer_ = nullptr;
  std::size_t bytes_ = 0;
  Envelope matched_;
  std::uint64_t cookie_ = 0;
  std::uint64_t enqueued_tick_ = 0;
};

}  // namespace semperm::match
