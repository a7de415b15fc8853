#include "sim/event.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

namespace emptcp::sim {
namespace {

TEST(SchedulerTest, StartsAtTimeZero) {
  Scheduler s;
  EXPECT_EQ(s.now(), kTimeZero);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(SchedulerTest, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(milliseconds(30), [&] { order.push_back(3); });
  s.schedule_at(milliseconds(10), [&] { order.push_back(1); });
  s.schedule_at(milliseconds(20), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), milliseconds(30));
}

TEST(SchedulerTest, TiesBreakByInsertionOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.schedule_at(milliseconds(10), [&order, i] { order.push_back(i); });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SchedulerTest, RunUntilStopsAtDeadlineInclusive) {
  Scheduler s;
  int fired = 0;
  s.schedule_at(milliseconds(10), [&] { ++fired; });
  s.schedule_at(milliseconds(20), [&] { ++fired; });
  s.schedule_at(milliseconds(21), [&] { ++fired; });
  s.run_until(milliseconds(20));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), milliseconds(20));
  s.run();
  EXPECT_EQ(fired, 3);
}

TEST(SchedulerTest, RunUntilAdvancesClockWithoutEvents) {
  Scheduler s;
  s.run_until(seconds(5));
  EXPECT_EQ(s.now(), seconds(5));
}

TEST(SchedulerTest, EventsScheduledDuringRunExecute) {
  Scheduler s;
  int count = 0;
  s.schedule_at(milliseconds(1), [&] {
    ++count;
    s.schedule_in(milliseconds(1), [&] { ++count; });
  });
  s.run();
  EXPECT_EQ(count, 2);
  EXPECT_EQ(s.now(), milliseconds(2));
}

TEST(SchedulerTest, CancelPreventsExecution) {
  Scheduler s;
  int fired = 0;
  EventId id = s.schedule_at(milliseconds(10), [&] { ++fired; });
  EXPECT_TRUE(id.pending());
  Scheduler::cancel(id);
  EXPECT_FALSE(id.pending());
  s.run();
  EXPECT_EQ(fired, 0);
}

TEST(SchedulerTest, CancelIsIdempotentAndSafeOnEmptyHandle) {
  Scheduler s;
  EventId empty;
  Scheduler::cancel(empty);  // no-op
  EventId id = s.schedule_at(milliseconds(1), [] {});
  Scheduler::cancel(id);
  Scheduler::cancel(id);  // second cancel is a no-op
  s.run();
}

TEST(SchedulerTest, PendingReflectsFiredState) {
  Scheduler s;
  EventId id = s.schedule_at(milliseconds(1), [] {});
  EXPECT_TRUE(id.pending());
  s.run();
  EXPECT_FALSE(id.pending());
}

TEST(SchedulerTest, SchedulingInPastThrows) {
  Scheduler s;
  s.schedule_at(milliseconds(10), [] {});
  s.run();
  EXPECT_THROW(s.schedule_at(milliseconds(5), [] {}), std::logic_error);
}

TEST(SchedulerTest, ReturnsExecutedCount) {
  Scheduler s;
  for (int i = 0; i < 7; ++i) s.schedule_at(milliseconds(i), [] {});
  EXPECT_EQ(s.run(), 7u);
}

TEST(SchedulerTest, EventLimitGuardsRunawayLoops) {
  Scheduler s;
  s.set_event_limit(100);
  std::function<void()> loop = [&] { s.schedule_in(1, loop); };
  s.schedule_at(0, loop);
  EXPECT_THROW(s.run(), std::runtime_error);
}

// --- Slab scheduler regression tests ---------------------------------------

TEST(SchedulerTest, DeterministicOrderWithInterleavedCancels) {
  // The same schedule/cancel sequence must produce the same execution
  // order on every run — ties by insertion sequence, cancelled events
  // skipped without perturbing their neighbours' order.
  auto run_once = [] {
    Scheduler s;
    std::vector<int> order;
    std::vector<EventId> ids;
    for (int i = 0; i < 50; ++i) {
      // Many ties: times cycle through 5 values.
      ids.push_back(s.schedule_at(milliseconds(i % 5),
                                  [&order, i] { order.push_back(i); }));
    }
    for (int i = 0; i < 50; i += 3) Scheduler::cancel(ids[i]);
    s.run();
    return order;
  };
  const std::vector<int> first = run_once();
  EXPECT_EQ(first.size(), 33u);  // 17 of 50 cancelled
  // Within each time bucket, insertion order; buckets in time order.
  for (std::size_t k = 1; k < first.size(); ++k) {
    if (first[k - 1] % 5 == first[k] % 5) {
      EXPECT_LT(first[k - 1], first[k]);
    }
  }
  EXPECT_EQ(run_once(), first);
}

TEST(SchedulerTest, CancelAfterFireIsNoOp) {
  Scheduler s;
  int fired = 0;
  EventId id = s.schedule_at(milliseconds(1), [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(id.pending());
  Scheduler::cancel(id);  // stale: the event already fired
  s.schedule_at(milliseconds(2), [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(SchedulerTest, StaleHandleCannotCancelSlotReuser) {
  // After an event fires, its slab slot is reused by the next scheduled
  // event. A stale handle to the fired event must not cancel (or report
  // pending for) the unrelated event now occupying the slot.
  Scheduler s;
  EventId stale = s.schedule_at(milliseconds(1), [] {});
  s.run();
  int fired = 0;
  EventId fresh = s.schedule_at(milliseconds(2), [&] { ++fired; });
  EXPECT_FALSE(stale.pending());
  Scheduler::cancel(stale);  // must not touch the reused slot
  EXPECT_TRUE(fresh.pending());
  s.run();
  EXPECT_EQ(fired, 1);
}

TEST(SchedulerTest, SlabSlotsAreReusedUnderChurn) {
  // Steady-state schedule/fire churn must recycle slots through the
  // freelist instead of growing the slab without bound.
  Scheduler s;
  constexpr int kBatch = 100;
  for (int round = 0; round < 50; ++round) {
    const Time base = s.now();
    for (int i = 0; i < kBatch; ++i) {
      s.schedule_at(base + i + 1, [] {});
    }
    s.run();
  }
  // At most one batch is ever live at once; the slab may round up to its
  // chunk granularity but must not keep growing across rounds.
  EXPECT_LE(s.slab_size(), 256u);
}

TEST(SchedulerTest, CancelledSlotsAreRecycled) {
  Scheduler s;
  for (int round = 0; round < 20; ++round) {
    std::vector<EventId> ids;
    const Time base = s.now();
    for (int i = 0; i < 50; ++i) {
      ids.push_back(s.schedule_at(base + i + 1, [] {}));
    }
    for (EventId& id : ids) Scheduler::cancel(id);
    s.run();  // pops the cancelled entries, releasing their slots
  }
  EXPECT_LE(s.slab_size(), 256u);
}

// Drains a run that cancelled its latest entry, so the queue pops that
// entry past now(); later schedules between now() and its time must still
// run in time order. The times are raw nanoseconds chosen so that a queue
// keyed to the drained entry's time (12) would run 9 before 3.
TEST(SchedulerTest, ScheduleBelowADrainedCancelledTailKeepsOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(1, [&] { order.push_back(1); });
  EventId tail = s.schedule_at(12, [&] { order.push_back(12); });
  Scheduler::cancel(tail);
  s.run();
  EXPECT_EQ(s.now(), 1);
  s.schedule_at(9, [&] { order.push_back(9); });
  s.schedule_at(3, [&] { order.push_back(3); });
  EXPECT_EQ(s.next_event_time(), 3);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 9}));
}

// Property: seeded random interleavings of schedule (from outside and from
// inside actions), cancel and run_until against a reference model ordered
// by (time, insertion sequence). The model keeps cancelled entries queued
// until their time, as the scheduler does, because next_event_time() is
// the minimum over every queued entry: the lower bound the shard engine's
// epoch planner reads.
class SchedulerModel {
 public:
  explicit SchedulerModel(std::uint64_t seed) : rng_(seed) {}

  void run_ops(int ops) {
    for (int op = 0; op < ops; ++op) {
      switch (pick(8)) {
        case 0:
        case 1:
        case 2:
          schedule(s_.now() + draw_delay(), /*child_delay=*/-1);
          break;
        case 3:
          schedule(s_.now() + draw_delay(), draw_delay());
          break;
        case 4:
          cancel_some();
          break;
        case 5:
          schedule_below_next();
          break;
        case 6:
          run_until(s_.now() + draw_delay());
          break;
        default:
          if (pick(4) == 0) run_until(kTimeNever);
          break;
      }
      check();
    }
    run_until(kTimeNever);
    check();
    EXPECT_EQ(fired_, model_fired_);
  }

  /// How often each case the property must cover came up.
  struct Coverage {
    int equal_time_schedules = 0;
    int min_cancels = 0;
    int fired_cancels = 0;
    int below_next_schedules = 0;
    int fired = 0;
  };
  [[nodiscard]] Coverage coverage() const {
    Coverage c = coverage_;
    c.fired = static_cast<int>(model_fired_.size());
    return c;
  }

 private:
  struct Queued {
    Time t;
    std::uint64_t seq;
    int id;
  };
  struct Event {
    EventId handle;
    Duration child_delay = -1;  ///< < 0: the action schedules no child
    bool queued = true;
    bool cancelled = false;
    bool fired = false;
  };

  std::uint64_t pick(std::uint64_t n) { return rng_() % n; }

  /// Zero, a time already queued, or a delay from 1 ns to ~17 s, so equal
  /// times and every radix bucket both occur.
  Duration draw_delay() {
    switch (pick(6)) {
      case 0:
        return 0;
      case 1:
        if (!queue_.empty()) {
          const Time t = queue_[pick(queue_.size())].t;
          if (t >= s_.now() && t != kTimeNever) {
            ++coverage_.equal_time_schedules;
            return t - s_.now();
          }
        }
        return 0;
      default:
        return static_cast<Duration>(rng_() >> (30 + pick(34)));
    }
  }

  void schedule(Time t, Duration child_delay) {
    const int id = static_cast<int>(events_.size());
    events_.push_back(Event{});
    events_[id].child_delay = child_delay;
    events_[id].handle = s_.schedule_at(t, [this, id] { fire(id); });
    queue_.push_back(Queued{t, next_seq_++, id});
  }

  /// The scheduler-side action: record the id, maybe schedule a child.
  void fire(int id) {
    fired_.push_back(id);
    const Duration d = events_[id].child_delay;
    if (d >= 0) schedule(s_.now() + d, -1);
  }

  void cancel_some() {
    if (events_.empty()) return;
    int id = static_cast<int>(pick(events_.size()));
    const std::size_t live_min = model_min(/*live_only=*/true);
    const std::uint64_t which = pick(4);
    if (which == 0 && live_min != queue_.size()) {
      id = queue_[live_min].id;  // the current minimum
      ++coverage_.min_cancels;
    } else if (which == 1 && !queue_.empty()) {
      // The latest entry, so a drain can end on a cancelled entry past now.
      id = std::max_element(queue_.begin(), queue_.end(),
                            [](const Queued& a, const Queued& b) {
                              return a.t < b.t;
                            })->id;
    }
    Event& e = events_[id];
    if (e.fired) ++coverage_.fired_cancels;
    EXPECT_EQ(e.handle.pending(), e.queued && !e.cancelled && !e.fired);
    Scheduler::cancel(e.handle);  // no-op when fired or cancelled already
    if (e.queued && !e.fired) e.cancelled = true;
  }

  /// After run_until stopped short, now() may sit well below the next
  /// event: schedule strictly between the two.
  void schedule_below_next() {
    const Time next = s_.next_event_time();
    if (next == kTimeNever || next - s_.now() < 2) return;
    ++coverage_.below_next_schedules;
    schedule(s_.now() + 1 + static_cast<Duration>(
                                pick(static_cast<std::uint64_t>(
                                    next - s_.now() - 1))),
             -1);
  }

  void run_until(Time stop) {
    s_.run_until(stop);
    // Model: pop (t, seq)-minimal entries at or before `stop`; live ones
    // fire in that order and may schedule their child.
    Time now = model_now_;
    for (;;) {
      const std::size_t i = model_min(/*live_only=*/false);
      if (i == queue_.size() || queue_[i].t > stop) break;
      const Queued q = queue_[i];
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
      Event& e = events_[q.id];
      e.queued = false;
      if (e.cancelled) continue;
      e.fired = true;
      now = q.t;
      model_fired_.push_back(q.id);
    }
    if (stop != kTimeNever && stop > now) now = stop;
    model_now_ = now;
  }

  /// Index of the (t, seq)-minimal queued entry, or queue_.size().
  std::size_t model_min(bool live_only) const {
    std::size_t best = queue_.size();
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      if (live_only && events_[queue_[i].id].cancelled) continue;
      if (best == queue_.size() || queue_[i].t < queue_[best].t ||
          (queue_[i].t == queue_[best].t && queue_[i].seq < queue_[best].seq)) {
        best = i;
      }
    }
    return best;
  }

  void check() {
    ASSERT_EQ(s_.now(), model_now_);
    ASSERT_EQ(s_.pending_events(), queue_.size());
    ASSERT_EQ(s_.events_executed(), model_fired_.size());
    const std::size_t i = model_min(/*live_only=*/false);
    ASSERT_EQ(s_.next_event_time(),
              i == queue_.size() ? kTimeNever : queue_[i].t);
    ASSERT_EQ(fired_, model_fired_);
  }

  std::mt19937_64 rng_;
  Scheduler s_;
  std::vector<Event> events_;
  std::vector<Queued> queue_;  ///< model queue, cancelled entries included
  std::uint64_t next_seq_ = 0;
  std::vector<int> fired_;        ///< order the scheduler ran actions in
  std::vector<int> model_fired_;  ///< order the model predicts
  Time model_now_ = kTimeZero;
  Coverage coverage_;
};

TEST(SchedulerPropertyTest, RandomInterleavingsMatchTimeSeqModel) {
  SchedulerModel::Coverage total;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(seed);
    SchedulerModel model(seed);
    model.run_ops(1500);
    const SchedulerModel::Coverage c = model.coverage();
    total.equal_time_schedules += c.equal_time_schedules;
    total.min_cancels += c.min_cancels;
    total.fired_cancels += c.fired_cancels;
    total.below_next_schedules += c.below_next_schedules;
    total.fired += c.fired;
  }
  EXPECT_GT(total.equal_time_schedules, 100);
  EXPECT_GT(total.min_cancels, 100);
  EXPECT_GT(total.fired_cancels, 100);
  EXPECT_GT(total.below_next_schedules, 100);
  EXPECT_GT(total.fired, 10'000);
}

TEST(TimeTest, ConversionsRoundTrip) {
  EXPECT_EQ(seconds(2), milliseconds(2000));
  EXPECT_EQ(milliseconds(1), microseconds(1000));
  EXPECT_DOUBLE_EQ(to_seconds(seconds(3)), 3.0);
  EXPECT_EQ(from_seconds(1.5), milliseconds(1500));
  EXPECT_DOUBLE_EQ(to_milliseconds(milliseconds(250)), 250.0);
}

}  // namespace
}  // namespace emptcp::sim
