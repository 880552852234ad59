//===- service/FairQueue.h - Fair-share bounded MPMC queue ------*- C++-*-===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded multi-producer multi-consumer queue with per-key sub-queues
/// drained by deficit round-robin (DRR), replacing the single global FIFO
/// on the DiffService admission path: one hot or hostile document can no
/// longer monopolise the workers, because every active key gets a quantum
/// of service per scheduling turn regardless of how deep its own backlog
/// runs.
///
/// Contracts carried over from BoundedQueue: producers never block
/// (tryPush reports backpressure instead), consumers block in pop until
/// an item arrives or the queue is closed *and* drained, and a failed
/// push leaves the item untouched. New here:
///
///  - tryPush takes a key and a cost (expected service time in arbitrary
///    units, e.g. microseconds); the scheduler serves a key while its
///    accumulated deficit covers the next item's cost, so keys with
///    expensive requests get proportionally fewer slots per turn.
///  - an optional per-key capacity bounds any single key's backlog below
///    the shared capacity (a hot tenant hits its own wall first).
///  - shedNewest(Key) removes the youngest queued item of a key, which is
///    what CoDel-style load shedding wants: old requests are about to be
///    answered anyway, fresh arrivals are the ones worth pushing back on.
///  - pop claims the returned item's key: no item of that key is handed
///    out again until release(Key), so consumers execute one key's items
///    one at a time, in push order.
///
/// Items within one key stay FIFO; fairness reorders *across* keys only.
///
//===----------------------------------------------------------------------===//

#ifndef TRUEDIFF_SERVICE_FAIRQUEUE_H
#define TRUEDIFF_SERVICE_FAIRQUEUE_H

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <unordered_map>

namespace truediff {
namespace service {

/// Outcome of FairQueue::tryPush. Full and KeyFull are both backpressure,
/// but callers report them differently (global vs. per-document hints).
enum class PushResult : uint8_t {
  Ok,      ///< enqueued
  Full,    ///< shared capacity exhausted
  KeyFull, ///< this key's sub-queue is at its per-key capacity
  Closed,  ///< queue is shut down
};

template <typename T> class FairQueue {
public:
  /// \p Capacity bounds the total queued items across all keys.
  /// \p PerKeyCapacity bounds any single key's backlog (0 = no per-key
  /// bound). \p Quantum is the deficit granted to each active key per
  /// scheduling turn, in the same units as the costs passed to tryPush.
  FairQueue(size_t Capacity, size_t PerKeyCapacity, uint64_t Quantum)
      : Capacity(Capacity), PerKeyCapacity(PerKeyCapacity),
        Quantum(std::max<uint64_t>(1, Quantum)) {}

  /// Enqueues \p Item under \p Key with expected service cost \p Cost.
  /// On any failure the item is left untouched (not moved from). Costs
  /// are clamped to [1, 64 * Quantum] so a single mispredicted request
  /// can never stall its key forever (a key's deficit grows by Quantum
  /// every turn, so any clamped cost is payable within 64 turns).
  PushResult tryPush(uint64_t Key, T &&Item, uint64_t Cost) {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      if (Closed)
        return PushResult::Closed;
      if (Size >= Capacity)
        return PushResult::Full;
      SubQueue &Sub = Subs[Key];
      if (PerKeyCapacity != 0 && Sub.Items.size() >= PerKeyCapacity)
        return PushResult::KeyFull;
      Cost = std::min(std::max<uint64_t>(1, Cost), 64 * Quantum);
      if (Sub.Items.empty() && !Sub.Claimed)
        Active.push_back(Key);
      Sub.Items.emplace_back(std::move(Item), Cost);
      ++Size;
    }
    NotEmpty.notify_one();
    return PushResult::Ok;
  }

  /// Blocks until an item is available and returns the next one in DRR
  /// order, or std::nullopt once the queue is closed and fully drained.
  /// The item's key is stored in \p Key and claimed: until release(Key),
  /// that key's remaining items are held back from every consumer, so no
  /// two items of one key are ever in flight together. Every successful
  /// pop must be followed by release.
  std::optional<T> pop(uint64_t &Key) {
    std::unique_lock<std::mutex> Lock(Mu);
    // Items of claimed keys are queued but not poppable, so wait for the
    // ring, not just for Size.
    NotEmpty.wait(Lock, [&] { return drained() || !Active.empty(); });
    if (Active.empty())
      return std::nullopt;

    // Deficit round-robin over the active keys, one item per visit:
    // grant the head key a quantum, serve its head item if the deficit
    // covers the item's cost, then rotate regardless. Serving at most
    // one item per visit keeps the scheduler latency-fair (a flood of
    // cheap requests cannot spend its whole quantum in one burst while
    // a cold key waits); costs still weight throughput, because an
    // expensive item needs several visits to accumulate its cost.
    // Cost clamping at push (64 quanta) and the deficit cap guarantee
    // every key is served within a bounded number of ring rotations.
    for (;;) {
      Key = Active.front();
      SubQueue &Sub = Subs.find(Key)->second;
      if (!Sub.TurnCharged) {
        Sub.Deficit = std::min(Sub.Deficit + Quantum, 64 * Quantum);
        Sub.TurnCharged = true;
      }
      if (Sub.Items.front().second <= Sub.Deficit) {
        Sub.Deficit -= Sub.Items.front().second;
        T Item = std::move(Sub.Items.front().first);
        Sub.Items.pop_front();
        --Size;
        // Out of the ring until release(); the entry stays so pushes
        // meanwhile know not to re-activate the key.
        Active.pop_front();
        Sub.Claimed = true;
        wakeAllIfDrained(Lock);
        return Item;
      }
      Active.pop_front();
      Active.push_back(Key);
      Sub.TurnCharged = false;
    }
  }

  /// Ends the claim pop() took on \p Key. Its queued items, if any,
  /// rejoin the back of the scheduling ring; an emptied key leaves and
  /// forfeits its deficit, so idle keys cannot bank credit (standard DRR).
  void release(uint64_t Key) {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      auto It = Subs.find(Key);
      if (It == Subs.end() || !It->second.Claimed)
        return;
      SubQueue &Sub = It->second;
      Sub.Claimed = false;
      if (Sub.Items.empty()) {
        Subs.erase(It);
        return;
      }
      Active.push_back(Key);
      Sub.TurnCharged = false;
    }
    NotEmpty.notify_one();
  }

  /// Removes and returns the *youngest* queued item of \p Key, or
  /// std::nullopt if the key has no queued items. Used by load shedding:
  /// fresh arrivals are pushed back on, requests near the head are about
  /// to be served anyway.
  std::optional<T> shedNewest(uint64_t Key) {
    std::unique_lock<std::mutex> Lock(Mu);
    auto It = Subs.find(Key);
    if (It == Subs.end() || It->second.Items.empty())
      return std::nullopt;
    SubQueue &Sub = It->second;
    T Item = std::move(Sub.Items.back().first);
    Sub.Items.pop_back();
    --Size;
    if (Sub.Items.empty() && !Sub.Claimed) {
      Active.erase(std::find(Active.begin(), Active.end(), Key));
      Subs.erase(It);
    }
    wakeAllIfDrained(Lock);
    return Item;
  }

  /// Stops accepting new items; blocked consumers drain the remainder and
  /// then observe end-of-queue.
  void close() {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Closed = true;
    }
    NotEmpty.notify_all();
  }

  size_t depth() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Size;
  }

  /// Queued items under \p Key.
  size_t depthOf(uint64_t Key) const {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Subs.find(Key);
    return It == Subs.end() ? 0 : It->second.Items.size();
  }

  /// Number of unclaimed keys with at least one queued item.
  size_t activeKeys() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Active.size();
  }

  size_t capacity() const { return Capacity; }
  size_t perKeyCapacity() const { return PerKeyCapacity; }

private:
  bool drained() const { return Closed && Size == 0; }

  /// Consumers parked behind claimed keys wait for Active, which a drained
  /// closed queue never refills: whoever takes the last item after close
  /// must wake them all to observe end-of-queue.
  void wakeAllIfDrained(std::unique_lock<std::mutex> &Lock) {
    if (!drained())
      return;
    Lock.unlock();
    NotEmpty.notify_all();
  }

  struct SubQueue {
    std::deque<std::pair<T, uint64_t>> Items; ///< (item, cost) FIFO
    uint64_t Deficit = 0;
    /// Whether this key already received its quantum for the current
    /// scheduling turn; reset when the key is rotated to the back.
    bool TurnCharged = false;
    /// Held by a pop() consumer: the key stays out of Active (even
    /// with items queued) and in Subs (even when empty) until release().
    bool Claimed = false;
  };

  const size_t Capacity;
  const size_t PerKeyCapacity;
  const uint64_t Quantum;

  mutable std::mutex Mu;
  std::condition_variable NotEmpty;
  std::unordered_map<uint64_t, SubQueue> Subs;
  /// Round-robin ring of keys with queued items; invariant: Key appears
  /// here exactly once iff Subs[Key].Items is non-empty and the key is
  /// not claimed, and Size is the sum of all sub-queue sizes.
  std::deque<uint64_t> Active;
  size_t Size = 0;
  bool Closed = false;
};

} // namespace service
} // namespace truediff

#endif // TRUEDIFF_SERVICE_FAIRQUEUE_H
