#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "rts/fault.hpp"
#include "rts/transport.hpp"

namespace paratreet::rts {

using Task = std::function<void()>;
class Runtime;

/// Exactly-once delivery over a lossy transport — the stand-in for what
/// MPI's reliable byte streams (or a UCX AM layer with acks) give the real
/// system for free. Each logical message gets a global sequence number;
/// every physical copy of it is subject to the FaultInjector's decision
/// for (seq, attempt). The receiver deduplicates by sequence number and
/// always acks; the sender retransmits on ack timeout with capped
/// exponential backoff until acked or `max_transport_retries` is
/// exhausted (then the message is dropped for good and counted as
/// rts.undeliverable).
///
/// Retransmit timers are delayed runtime tasks, so they count toward
/// quiescence: drain() naturally waits until every in-flight message is
/// either delivered+acked or abandoned.
class ReliableLayer {
 public:
  ReliableLayer(Runtime& rt, FaultInjector& injector);
  ~ReliableLayer();

  /// Transmit one message with delivery guarantees; its on_receive runs
  /// exactly once on `msg.to` (unless the message becomes undeliverable
  /// under the configured retry budget). Physical copies — first
  /// transmission, retransmissions, injected duplicates, acks — travel
  /// over the runtime's Transport; ack-timeout timers stay local.
  void send(Message msg);

  /// Untagged (MessageKind::kData) convenience form, mirroring
  /// Runtime::send()'s overload.
  void send(int from, int to, std::size_t bytes, Task on_receive) {
    Message msg;
    msg.from = from;
    msg.to = to;
    msg.bytes = bytes;
    msg.on_receive = std::move(on_receive);
    send(std::move(msg));
  }

  /// Stop all retransmit chains: pending entries are released as their
  /// timers fire. Used by Runtime teardown after a watchdog abort so the
  /// destructor's drain cannot hang or throw.
  void abandonAll();

  /// Stop retransmitting to one dead rank: every in-flight message
  /// addressed to it retires on its next timer instead of retransmitting,
  /// and copies already on the wire are discarded at delivery. A late ack
  /// for an abandoned message is absorbed without resurrecting it. Called
  /// by Runtime::recoverCrashedRanks().
  void abandonRank(int rank);

  /// Clear a rank's abandon flag after a restart recovery. Only safe once
  /// the runtime has settled to quiescence, i.e. every in-flight message
  /// addressed to the dead incarnation has already retired.
  void readmitRank(int rank);

  std::uint64_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }
  std::uint64_t retries() const {
    return retries_.load(std::memory_order_relaxed);
  }
  std::uint64_t duplicatesSuppressed() const {
    return dup_suppressed_.load(std::memory_order_relaxed);
  }
  std::uint64_t undeliverable() const {
    return undeliverable_.load(std::memory_order_relaxed);
  }
  std::uint64_t acked() const { return acked_.load(std::memory_order_relaxed); }

  /// One line per sender with unacked messages, for the watchdog dump.
  std::string describeInflight() const;

 private:
  /// One logical message. Shared by the sender's pending map and every
  /// closure (delivery copies, ack, timer) so lifetime is safe no matter
  /// which side finishes last.
  struct Pending {
    std::uint64_t seq = 0;
    int from = 0;
    int to = 0;
    std::size_t bytes = 0;
    MessageKind kind = MessageKind::kData;
    Task payload;
    /// Real serialized bytes, when the message carries them: every
    /// physical copy (including retransmissions) ships them on the wire.
    std::shared_ptr<const std::vector<std::byte>> wire_payload;
    // Guarded by the sender-side ProcState mutex:
    int attempts = 0;
    bool acked = false;
  };

  /// Per-proc protocol state: `pending` holds messages this proc sent and
  /// has not yet seen acked; `delivered` holds sequence numbers this proc
  /// has already executed (the dedup set).
  struct ProcState {
    mutable std::mutex mutex;
    std::unordered_map<std::uint64_t, std::shared_ptr<Pending>> pending;
    std::unordered_set<std::uint64_t> delivered;
  };

  /// One physical transmission attempt: consult the injector, schedule
  /// the surviving copies, arm the ack timer.
  void transmit(const std::shared_ptr<Pending>& p);
  /// Build the Message for one physical copy of `p` (transport-bound).
  Message wireCopy(const std::shared_ptr<Pending>& p, Task on_receive);
  /// Runs on the destination proc for each arriving copy.
  void deliver(const std::shared_ptr<Pending>& p);
  /// Runs on the source proc when an ack arrives.
  void handleAck(const std::shared_ptr<Pending>& p);
  /// Ack-timeout timer: retire (acked/abandoned/exhausted) or retransmit.
  void onTimer(const std::shared_ptr<Pending>& p);

  void retire(const std::shared_ptr<Pending>& p);  // caller holds no locks
  double backoffUs(int attempts) const;
  void traceFault(const char* name) const;

  Runtime& rt_;
  FaultInjector& injector_;
  std::vector<std::unique_ptr<ProcState>> procs_;

  std::atomic<std::uint64_t> next_seq_{0};
  std::atomic<std::uint64_t> inflight_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> dup_suppressed_{0};
  std::atomic<std::uint64_t> undeliverable_{0};
  std::atomic<std::uint64_t> acked_{0};
  std::atomic<bool> abandon_{false};
  /// Per-destination abandon flags, one per rank (see abandonRank).
  std::unique_ptr<std::atomic<bool>[]> abandoned_to_;
};

}  // namespace paratreet::rts
