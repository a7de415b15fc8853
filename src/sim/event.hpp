// Event scheduler: the heart of the discrete-event simulator.
//
// The scheduler owns a monotone radix queue of (time, slot) entries. Ties
// on time run in insertion order, so execution order is fully
// deterministic. Events can be cancelled; cancellation is O(1) (the slot's
// generation is bumped and the queue entry is skipped when popped).
//
// Hot-path layout: event actions live in a freelist-backed slab of slots,
// each holding a small-buffer-optimised callable, and queue entries are
// 16-byte PODs in pooled blocks — so scheduling, firing and re-keying
// allocate nothing in steady state (only slab/pool growth, which is
// amortised and then reused for the rest of the run). An EventId is an
// (index, generation) handle into the slab: stale handles (fired or
// cancelled events, reused slots) are detected by generation mismatch,
// keeping cancel-after-fire safe without per-event shared_ptr control
// blocks.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/small_function.hpp"
#include "sim/time.hpp"

namespace emptcp::sim {

class Scheduler;

/// Handle to a scheduled event, usable to cancel it. Default-constructed
/// handles refer to no event and are safe to cancel (no-op). A handle must
/// not outlive the Scheduler that issued it.
class EventId {
 public:
  EventId() = default;

  /// True if this handle refers to an event that has neither fired nor been
  /// cancelled yet.
  [[nodiscard]] bool pending() const;

 private:
  friend class Scheduler;
  EventId(Scheduler* sched, std::uint32_t slot, std::uint32_t gen)
      : sched_(sched), slot_(slot), gen_(gen) {}

  Scheduler* sched_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

class Scheduler {
 public:
  using Action = SmallFunction;

  /// Current simulated time. Monotonically non-decreasing.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedules `action` to run at absolute time `t`. Scheduling in the past
  /// is a programming error and throws.
  EventId schedule_at(Time t, Action action);

  /// Schedules `action` to run `dt` from now (dt >= 0).
  EventId schedule_in(Duration dt, Action action) {
    return schedule_at(now_ + dt, std::move(action));
  }

  /// Cancels an event if it is still pending. Safe on empty/fired/stale
  /// handles.
  static void cancel(EventId& id);

  /// Runs events until the queue is empty or `stop_at` is reached. Events
  /// scheduled exactly at `stop_at` do run. Returns the number of events
  /// executed.
  std::size_t run_until(Time stop_at);

  /// Runs until the event queue drains completely.
  std::size_t run() { return run_until(kTimeNever); }

  /// Number of entries still queued (cancelled entries count until they
  /// are popped and discarded).
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

  /// Timestamp of the earliest queued entry, kTimeNever when the queue is
  /// empty. A cancelled entry still at the top reports its (stale) time —
  /// a conservative lower bound, which is all the shard engine's epoch
  /// planner needs.
  [[nodiscard]] Time next_event_time() const { return queue_.min_time(); }

  /// Hard cap on executed events per run_until call, as a runaway guard.
  void set_event_limit(std::size_t limit) { event_limit_ = limit; }

  /// Slab capacity (allocated slots), for diagnostics and slab-reuse tests.
  /// Slots are never freed, so this doubles as the high-water mark of
  /// concurrently pending events — a self-profiling figure.
  [[nodiscard]] std::size_t slab_size() const { return slab_size_; }

  /// Total events executed over the scheduler's lifetime (across every
  /// run_until call), for self-profiling and events/s accounting.
  [[nodiscard]] std::uint64_t events_executed() const {
    return executed_total_;
  }

 private:
  friend class EventId;

  /// Slot in the event slab. `gen` increments every time the slot's event
  /// leaves the pending state (fire or cancel), invalidating outstanding
  /// handles; `next_free` threads the freelist.
  struct Slot {
    Action action;
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNoFreeSlot;
  };
  /// A queued event: 16 bytes, no seq field. Among equal times the queue
  /// pops in insertion order by construction (see EventQueue).
  struct Entry {
    Time t = 0;
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
  };

  /// Monotone radix queue (DESIGN.md §6.1). Every queued time is >= floor_,
  /// the time of the last popped entry; only pop() and rebase() move it.
  /// Bucket b holds the entries whose time first differs from floor_ in
  /// bit b-1, so bucket 0 holds exactly those at floor_. Times are
  /// non-negative int64, so b <= 63. Popping with bucket 0 empty re-keys
  /// the lowest occupied bucket against its minimum, the new floor_; its
  /// entries all land in lower buckets. Each bucket is a FIFO chain and
  /// only ever receives entries while it is empty (a re-key) or newer than
  /// all queued ones (a push), so equal times pop in insertion order:
  /// exactly the (time, seq) order of a heap.
  ///
  /// Storage is a pool of fixed-size blocks shared by all buckets: it grows
  /// to the pending high-water plus at most two partial blocks per bucket
  /// and is then reused, so steady state allocates nothing.
  class EventQueue {
   public:
    [[nodiscard]] bool empty() const { return size_ == 0; }
    [[nodiscard]] std::size_t size() const { return size_; }
    /// Minimum time over every queued entry, kTimeNever when empty. A peek:
    /// floor_ does not move, so entries between now and it stay legal.
    [[nodiscard]] Time min_time() const {
      return occupied_ == 0 ? kTimeNever
                            : buckets_[std::countr_zero(occupied_)].min;
    }
    /// Requires e.t >= floor_, which schedule_at's t >= now() implies.
    void push(const Entry& e);
    /// Removes and returns the earliest entry. Requires !empty().
    Entry pop();
    /// Restarts an empty queue's frame at `floor` (<= every later push).
    void rebase(Time floor) { floor_ = floor; }

   private:
    static constexpr std::uint32_t kBlockEntries = 32;
    struct Block {
      Block* next = nullptr;  ///< first, on the line entries[0] shares
      Entry entries[kBlockEntries];
    };
    /// A FIFO chain of blocks. A bucket keeps its first block when it
    /// drains, so refilling a short bucket never touches the pool.
    struct Bucket {
      Block* head = nullptr;
      Block* tail = nullptr;
      std::uint32_t head_pos = 0;  ///< read cursor; bucket 0 only
      std::uint32_t tail_fill = kBlockEntries;  ///< full: append takes a block
      Time min = kTimeNever;
    };

    static unsigned bucket_of(Time t, Time floor) {
      return static_cast<unsigned>(std::bit_width(
          static_cast<std::uint64_t>(t) ^ static_cast<std::uint64_t>(floor)));
    }
    void append(unsigned b, Entry e);
    /// Re-keys the lowest occupied bucket into lower ones (bucket 0 empty).
    void refill();
    Block* take_block();
    void give_block(Block* block) {
      block->next = free_;
      free_ = block;
    }

    std::array<Bucket, 64> buckets_{};
    std::uint64_t occupied_ = 0;  ///< bit b set iff bucket b is non-empty
    Time floor_ = 0;
    std::size_t size_ = 0;
    Block* free_ = nullptr;
    std::vector<std::unique_ptr<Block>> blocks_;  ///< owns every block
  };

  static constexpr std::uint32_t kNoFreeSlot = 0xFFFFFFFFu;
  // Slots live in fixed-size chunks so growth never moves a Slot: actions
  // can be invoked in place and Slot references stay valid while an action
  // runs (even if it schedules more events).
  static constexpr std::size_t kChunkShift = 8;
  static constexpr std::size_t kChunkSize = 1u << kChunkShift;

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t idx);
  [[nodiscard]] Slot& slot(std::uint32_t idx) {
    return chunks_[idx >> kChunkShift][idx & (kChunkSize - 1)];
  }
  [[nodiscard]] const Slot& slot(std::uint32_t idx) const {
    return chunks_[idx >> kChunkShift][idx & (kChunkSize - 1)];
  }
  [[nodiscard]] bool is_pending(std::uint32_t idx, std::uint32_t gen) const {
    return idx < slab_size_ && slot(idx).gen == gen;
  }

  EventQueue queue_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::size_t slab_size_ = 0;
  std::uint32_t free_head_ = kNoFreeSlot;
  Time now_ = kTimeZero;
  std::uint64_t executed_total_ = 0;
  std::size_t event_limit_ = 500'000'000;
};

}  // namespace emptcp::sim
