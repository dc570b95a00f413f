// semperm/match/engine.hpp
//
// The MPI matching protocol over a pluggable pair of queue structures
// (paper §2.1):
//
//  * post_recv — search the unexpected-message queue first; on a match the
//    buffered message is consumed, otherwise the receive joins the posted
//    receive queue.
//  * incoming  — search the posted receive queue; on a match the receive
//    completes, otherwise the message joins the unexpected queue.
//
// The engine also hosts the observability used by Table 1 and Figure 1:
// per-queue search statistics and (optional) list-length sampling at every
// addition and deletion.
#pragma once

#include <memory>

#include "check/audit.hpp"
#include "check/match_shadow.hpp"
#include "common/assert.hpp"
#include "common/hot_path.hpp"
#include "common/mem_policy.hpp"
#include "match/entry.hpp"
#include "match/queue_iface.hpp"
#include "match/request.hpp"
#include "match/stats.hpp"
#include "obs/trace.hpp"

namespace semperm::match {

template <MemoryModel Mem>
class MatchEngine {
 public:
  using Prq = QueueIface<PostedEntry, Mem>;
  using Umq = QueueIface<UnexpectedEntry, Mem>;

  MatchEngine(std::unique_ptr<Prq> prq, std::unique_ptr<Umq> umq)
      : prq_(std::move(prq)), umq_(std::move(umq)) {
    SEMPERM_ASSERT(prq_ && umq_);
    SEMPERM_TRACE_ONLY(prq_track_ = semperm::obs::intern_track(
                           std::string("prq/") + prq_->name());
                       umq_track_ = semperm::obs::intern_track(
                           std::string("umq/") + umq_->name());)
  }

  /// Post a receive. If a buffered unexpected message matches, returns its
  /// request (the receive is satisfied immediately and `recv` completes);
  /// otherwise `recv` is queued on the PRQ and nullptr is returned.
  SEMPERM_HOT MatchRequest* post_recv(const Pattern& pattern,
                                      MatchRequest* recv) {
    SEMPERM_ASSERT(recv != nullptr);
    ++tick_;
    // Match-attempt span: arg on the B event is the queue depth searched;
    // the E event carries the live entries inspected (arg) and hit (value).
    SEMPERM_TRACE_ONLY(const std::uint64_t trace_inspected0 =
                           semperm::obs::trace_on()
                               ? umq_->stats().entries_inspected
                               : 0;)
    SEMPERM_TRACE_SPAN_BEGIN(semperm::obs::Category::kMatch, "match_attempt",
                             umq_track_, umq_->size());
    auto hit = umq_->find_and_remove(pattern);
    SEMPERM_TRACE_SPAN_END(
        semperm::obs::Category::kMatch, "match_attempt", umq_track_,
        umq_->stats().entries_inspected - trace_inspected0,
        hit ? 1.0 : 0.0);
    SEMPERM_TRACE_COUNTER(semperm::obs::Category::kMatch, "depth", umq_track_,
                          static_cast<double>(umq_->size()));
    SEMPERM_AUDIT_ONLY(
        umq_shadow_.expect_find_and_remove(pattern, hit, umq_->name());
        umq_shadow_.expect_size(umq_->size(), umq_->name());
        umq_->self_check();)
    if (hit) {
      sample_umq();
      MatchRequest* msg = hit->req;
      umq_dwell_.record(msg->enqueued_tick(), tick_);
      recv->set_matched(hit->envelope());
      recv->mark_complete();
      return msg;
    }
    recv->set_enqueued_tick(tick_);
    const PostedEntry entry = PostedEntry::from(pattern, recv);
    prq_->append(entry);
    SEMPERM_TRACE_COUNTER(semperm::obs::Category::kMatch, "depth", prq_track_,
                          static_cast<double>(prq_->size()));
    SEMPERM_AUDIT_ONLY(prq_shadow_.on_append(entry, prq_->name());
                       prq_shadow_.expect_size(prq_->size(), prq_->name());
                       prq_->self_check();)
    sample_prq();
    return nullptr;
  }

  /// Deliver an incoming message envelope. If a posted receive matches,
  /// returns its request (completed); otherwise the message request is
  /// buffered on the UMQ and nullptr is returned.
  SEMPERM_HOT MatchRequest* incoming(const Envelope& env,
                                     MatchRequest* msg) {
    SEMPERM_ASSERT(msg != nullptr);
    SEMPERM_ASSERT_MSG(env.tag != kHoleTag && env.rank != kHoleRank,
                       "reserved identity used on the wire: " << env.to_string());
    ++tick_;
    SEMPERM_TRACE_ONLY(const std::uint64_t trace_inspected0 =
                           semperm::obs::trace_on()
                               ? prq_->stats().entries_inspected
                               : 0;)
    SEMPERM_TRACE_SPAN_BEGIN(semperm::obs::Category::kMatch, "match_attempt",
                             prq_track_, prq_->size());
    auto hit = prq_->find_and_remove(env);
    SEMPERM_TRACE_SPAN_END(
        semperm::obs::Category::kMatch, "match_attempt", prq_track_,
        prq_->stats().entries_inspected - trace_inspected0,
        hit ? 1.0 : 0.0);
    SEMPERM_TRACE_COUNTER(semperm::obs::Category::kMatch, "depth", prq_track_,
                          static_cast<double>(prq_->size()));
    SEMPERM_AUDIT_ONLY(
        prq_shadow_.expect_find_and_remove(env, hit, prq_->name());
        prq_shadow_.expect_size(prq_->size(), prq_->name());
        prq_->self_check();)
    if (hit) {
      sample_prq();
      MatchRequest* recv = hit->req;
      prq_dwell_.record(recv->enqueued_tick(), tick_);
      recv->set_matched(env);
      recv->mark_complete();
      return recv;
    }
    msg->set_enqueued_tick(tick_);
    const UnexpectedEntry entry = UnexpectedEntry::from(env, msg);
    umq_->append(entry);
    SEMPERM_TRACE_COUNTER(semperm::obs::Category::kMatch, "depth", umq_track_,
                          static_cast<double>(umq_->size()));
    SEMPERM_AUDIT_ONLY(umq_shadow_.on_append(entry, umq_->name());
                       umq_shadow_.expect_size(umq_->size(), umq_->name());
                       umq_->self_check();)
    sample_umq();
    return nullptr;
  }

  /// Probe the unexpected queue (MPI_Iprobe semantics): the envelope of
  /// the earliest buffered message the pattern would match, if any. Does
  /// not consume the message.
  SEMPERM_HOT std::optional<Envelope> probe(const Pattern& pattern) {
    auto hit = umq_->peek(pattern);
    SEMPERM_AUDIT_ONLY(umq_shadow_.expect_peek(pattern, hit, umq_->name());)
    if (hit) return hit->envelope();
    return std::nullopt;
  }

  /// On-demand audit of both queues against the shadow reference models
  /// plus a structural self-check of each structure. No-op unless the
  /// audit layer is compiled in (SEMPERM_AUDIT).
  void audit() const {
    SEMPERM_AUDIT_ONLY(prq_shadow_.expect_size(prq_->size(), prq_->name());
                       umq_shadow_.expect_size(umq_->size(), umq_->name());
                       prq_->self_check(); umq_->self_check();)
  }

#if SEMPERM_AUDIT
  /// Test seam: desynchronise the UMQ shadow so the next audit must fail.
  void audit_corrupt_umq_shadow_for_test(const UnexpectedEntry& entry) {
    umq_shadow_.corrupt_for_test(entry);
  }
#endif

  Prq& prq() { return *prq_; }
  Umq& umq() { return *umq_; }
  const Prq& prq() const { return *prq_; }
  const Umq& umq() const { return *umq_; }

  /// Enable Fig.-1-style length sampling (off by default; it adds a
  /// histogram update to every queue mutation).
  void enable_sampling(std::uint64_t prq_bucket_width,
                       std::uint64_t umq_bucket_width) {
    prq_sampler_ = std::make_unique<LengthSampler>(prq_bucket_width);
    umq_sampler_ = std::make_unique<LengthSampler>(umq_bucket_width);
  }

  const LengthSampler* prq_sampler() const { return prq_sampler_.get(); }
  const LengthSampler* umq_sampler() const { return umq_sampler_.get(); }

  /// Time-in-queue statistics (engine ticks between enqueue and match):
  /// how long receives waited for their message, and how long unexpected
  /// messages sat buffered (the Keller & Graham UMQ characterisation).
  const DwellStats& prq_dwell() const { return prq_dwell_; }
  const DwellStats& umq_dwell() const { return umq_dwell_; }

  /// Operations processed (posts + arrivals).
  std::uint64_t ticks() const { return tick_; }

 private:
  void sample_prq() {
    if (prq_sampler_) prq_sampler_->sample(prq_->size());
  }
  void sample_umq() {
    if (umq_sampler_) umq_sampler_->sample(umq_->size());
  }

  std::unique_ptr<Prq> prq_;
  std::unique_ptr<Umq> umq_;
  // Shadow reference models (audited builds only): exact append-order
  // mirrors of both queues, cross-checked on every operation.
  SEMPERM_AUDIT_ONLY(check::MatchShadow<PostedEntry> prq_shadow_;
                     check::MatchShadow<UnexpectedEntry> umq_shadow_;)
  std::unique_ptr<LengthSampler> prq_sampler_;
  std::unique_ptr<LengthSampler> umq_sampler_;
  DwellStats prq_dwell_;
  DwellStats umq_dwell_;
  std::uint64_t tick_ = 0;
  // Trace-only: per-queue timeline tracks ("prq/<structure>", ...).
  SEMPERM_TRACE_ONLY(std::uint16_t prq_track_ = 0; std::uint16_t umq_track_ = 0;)
};

}  // namespace semperm::match
