// The liveness-view seam: who does a node *believe* is alive?
//
// Every LessLog decision — FINDLIVENODE's descending VID scan, the
// fault-tolerant subtree walks, children lists, the baselines — is a pure
// function of a liveness bitmap. Historically that bitmap was the swarm's
// ground-truth StatusWord, an oracle the paper never grants: Section 5
// maintains a *local, possibly stale* status word per node, and the
// paper's availability claim is conditioned on that local view having no
// false negatives. This seam makes the distinction explicit:
//
//   * LivenessView     — the read-only consult surface algorithms walk.
//     word() is non-virtual (one pointer indirection, same cost as the
//     CowStatus read it replaces), so putting the seam on the routing hot
//     path costs nothing.
//   * MutableLivenessView — the belief-update surface a Peer drives from
//     membership traffic (announcements in oracle mode, the SWIM failure
//     detector in gossip mode). Updates are virtual: they run at
//     membership-event rate, not per message.
//   * OracleView       — today's behavior, pinned: a CowStatus-backed view
//     whose believe_* methods reproduce the announcement path's
//     check-before-mutate semantics bit for bit.
//   * BorrowedView     — a non-owning adapter over an existing
//     `const StatusWord&` for callers that still hold a plain word
//     (benches, tests).
//
// The SWIM-driven implementation (membership::SwimView) lives in the
// membership library; this header deliberately knows nothing about it.
#pragma once

#include <cstdint>
#include <vector>

#include "lesslog/util/status_word.hpp"

namespace lesslog::util {

/// Read-only liveness belief. Algorithms take `const LivenessView&` and
/// must treat the returned word as a snapshot that may be arbitrarily
/// stale relative to ground truth.
class LivenessView {
 public:
  /// The believed liveness bitmap. Non-virtual on purpose: the routing
  /// hot path reads this per hop, so implementations keep `word_` bound
  /// to their current backing word instead of paying a virtual call.
  [[nodiscard]] const StatusWord& word() const noexcept { return *word_; }

  [[nodiscard]] bool is_live(std::uint32_t pid) const noexcept {
    return word_->is_live(pid);
  }
  [[nodiscard]] int width() const noexcept { return word_->width(); }
  [[nodiscard]] std::uint32_t live_count() const noexcept {
    return word_->live_count();
  }

 protected:
  explicit LivenessView(const StatusWord* word) noexcept : word_(word) {}
  ~LivenessView() = default;

  /// Implementations re-point the cached word whenever their backing
  /// storage moves (a CowStatus clone-on-write relocates the bits).
  void rebind(const StatusWord* word) noexcept { word_ = word; }

 private:
  const StatusWord* word_;
};

/// A liveness belief that can be updated. This is what a Peer owns (or is
/// handed): announcements and failure detectors feed believe_live /
/// believe_dead; rejoin resets the whole belief.
class MutableLivenessView : public LivenessView {
 public:
  virtual ~MutableLivenessView() = default;

  /// Learn (or re-learn) that `pid` is alive / dead. Redundant updates
  /// must be cheap no-ops (the announcement path delivers plenty).
  virtual void believe_live(std::uint32_t pid) = 0;
  virtual void believe_dead(std::uint32_t pid) = 0;

  /// The current suspects, ascending, or nullptr when the implementation
  /// tracks none (oracle views). A suspect is a PID a failure detector
  /// doubts but has not confirmed dead (the bitmap still shows it live).
  /// Suspicion-aware routing masks all suspects out of a status word in
  /// one pass and skips them *when an alternative exists*; it never
  /// overrides the bitmap.
  [[nodiscard]] virtual const std::vector<std::uint32_t>* suspects()
      const noexcept {
    return nullptr;
  }

  /// O(1) handle to the current belief — the cheap spelling of
  /// `StatusWord before = view;` that crash recovery needs.
  [[nodiscard]] virtual CowStatus snapshot() const = 0;

  /// Replace the whole belief (a rejoining node re-seeds its view from a
  /// neighbor's snapshot).
  virtual void reset(CowStatus fresh) = 0;

 protected:
  using LivenessView::LivenessView;
};

/// The pre-seam behavior, pinned: a copy-on-write status word updated
/// with exactly the announcement path's check-before-mutate discipline.
/// A redundant update never clones a shared snapshot — at scale most
/// peers never diverge from the swarm-wide construction snapshot at all.
class OracleView final : public MutableLivenessView {
 public:
  explicit OracleView(CowStatus status) noexcept
      : MutableLivenessView(&status.read()), status_(std::move(status)) {}

  void believe_live(std::uint32_t pid) override {
    if (!status_.read().is_live(pid)) {
      status_.mutate().set_live(pid);
      rebind(&status_.read());
    }
  }

  void believe_dead(std::uint32_t pid) override {
    if (status_.read().is_live(pid)) {
      status_.mutate().set_dead(pid);
      rebind(&status_.read());
    }
  }

  [[nodiscard]] CowStatus snapshot() const override {
    return status_.snapshot();
  }

  void reset(CowStatus fresh) override {
    status_ = std::move(fresh);
    rebind(&status_.read());
  }

 private:
  CowStatus status_;
};

/// Non-owning read-only adapter over a caller's StatusWord. The word must
/// outlive the view (typical use: a stack temporary bridging a plain
/// word into a `const LivenessView&` parameter).
class BorrowedView final : public LivenessView {
 public:
  explicit BorrowedView(const StatusWord& word) noexcept
      : LivenessView(&word) {}
};

}  // namespace lesslog::util
