#include "sim/event.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace emptcp::sim {

std::string format_time(Time t) {
  std::ostringstream os;
  os << to_seconds(t) << "s";
  return os.str();
}

void Scheduler::EventQueue::push(const Entry& e) {
  append(bucket_of(e.t, floor_), e);
  ++size_;
}

Scheduler::Entry Scheduler::EventQueue::pop() {
  if ((occupied_ & 1u) == 0) {
    // Most often the lowest bucket holds a single entry: it is the minimum,
    // so pop it in place instead of re-keying it into bucket 0.
    const int i = std::countr_zero(occupied_);
    Bucket& lowest = buckets_[i];
    if (lowest.tail_fill == 1 && lowest.head == lowest.tail) {
      const Entry e = lowest.head->entries[0];
      floor_ = e.t;
      lowest.tail_fill = 0;
      lowest.min = kTimeNever;
      occupied_ &= ~(std::uint64_t{1} << i);
      --size_;
      return e;
    }
    refill();
  }
  Bucket& b = buckets_[0];
  const Entry e = b.head->entries[b.head_pos++];
  --size_;
  if (b.head == b.tail) {
    if (b.head_pos == b.tail_fill) {  // drained: keep the block
      b.head_pos = 0;
      b.tail_fill = 0;
      b.min = kTimeNever;
      occupied_ &= ~std::uint64_t{1};
    }
  } else if (b.head_pos == kBlockEntries) {
    Block* next = b.head->next;
    give_block(b.head);
    b.head = next;
    b.head_pos = 0;
  }
  return e;
}

void Scheduler::EventQueue::append(unsigned b, Entry e) {
  Bucket& bucket = buckets_[b];
  if (bucket.tail_fill == kBlockEntries) {
    Block* block = take_block();
    if (bucket.tail == nullptr) {
      bucket.head = block;
    } else {
      bucket.tail->next = block;
    }
    bucket.tail = block;
    bucket.tail_fill = 0;
  }
  // Bookkeeping first, the entry store last: Entry's fields share types
  // with Bucket's, so a store through the block would force reloads.
  Block* const tail = bucket.tail;
  const std::uint32_t fill = bucket.tail_fill;
  bucket.tail_fill = fill + 1;
  bucket.min = std::min(bucket.min, e.t);
  occupied_ |= std::uint64_t{1} << b;
  tail->entries[fill] = e;
}

void Scheduler::EventQueue::refill() {
  const int i = std::countr_zero(occupied_);
  Bucket& src = buckets_[i];
  Block* const head = src.head;
  Block* const tail = src.tail;
  const std::uint32_t tail_fill = src.tail_fill;
  floor_ = src.min;
  // Empty the bucket down to its first block before re-keying: every entry
  // lands in a lower bucket, so nothing is appended to it meanwhile.
  src.tail = head;
  src.tail_fill = 0;
  src.min = kTimeNever;
  occupied_ &= ~(std::uint64_t{1} << i);
  for (Block* block = head;;) {
    const bool last = block == tail;
    const std::uint32_t n = last ? tail_fill : kBlockEntries;
    for (std::uint32_t k = 0; k < n; ++k) {
      const Entry e = block->entries[k];
      append(bucket_of(e.t, floor_), e);
    }
    Block* next = block->next;
    if (block != head) give_block(block);
    if (last) break;
    block = next;
  }
}

Scheduler::EventQueue::Block* Scheduler::EventQueue::take_block() {
  if (free_ == nullptr) {
    blocks_.push_back(std::make_unique<Block>());
    return blocks_.back().get();
  }
  Block* block = free_;
  free_ = block->next;
  block->next = nullptr;
  return block;
}

bool EventId::pending() const {
  return sched_ != nullptr && sched_->is_pending(slot_, gen_);
}

std::uint32_t Scheduler::acquire_slot() {
  if (free_head_ != kNoFreeSlot) {
    const std::uint32_t idx = free_head_;
    Slot& s = slot(idx);
    free_head_ = s.next_free;
    s.next_free = kNoFreeSlot;
    return idx;
  }
  if (slab_size_ == chunks_.size() * kChunkSize) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
  }
  return static_cast<std::uint32_t>(slab_size_++);
}

void Scheduler::release_slot(std::uint32_t idx) {
  Slot& s = slot(idx);
  s.action = nullptr;
  s.next_free = free_head_;
  free_head_ = idx;
}

EventId Scheduler::schedule_at(Time t, Action action) {
  if (t < now_) {
    throw std::logic_error("Scheduler::schedule_at: time " + format_time(t) +
                           " is in the past (now=" + format_time(now_) + ")");
  }
  const std::uint32_t idx = acquire_slot();
  Slot& s = slot(idx);
  s.action = std::move(action);
  queue_.push(Entry{t, idx, s.gen});
  return EventId{this, idx, s.gen};
}

void Scheduler::cancel(EventId& id) {
  if (id.sched_ != nullptr && id.sched_->is_pending(id.slot_, id.gen_)) {
    // Invalidate the slot but leave it allocated: the queue entry still
    // references it and frees it when popped.
    Slot& s = id.sched_->slot(id.slot_);
    ++s.gen;
    s.action = nullptr;
  }
  id.sched_ = nullptr;
}

std::size_t Scheduler::run_until(Time stop_at) {
  std::size_t executed = 0;
  while (!queue_.empty() && queue_.min_time() <= stop_at) {
    const Entry top = queue_.pop();
    Slot& s = slot(top.slot);
    if (s.gen != top.gen) {  // cancelled while queued
      release_slot(top.slot);
      continue;
    }
    ++s.gen;  // marks the event fired; outstanding handles go stale
    now_ = top.t;
    // Invoke in place: chunked slots never move, and the slot is not
    // released until after the call, so the action cannot be overwritten
    // even if it schedules (and a new event acquires) other slots.
    s.action();
    release_slot(top.slot);
    ++executed_total_;
    if (++executed >= event_limit_) {
      throw std::runtime_error("Scheduler: event limit exceeded at t=" +
                               format_time(now_));
    }
  }
  if (stop_at != kTimeNever && stop_at > now_) now_ = stop_at;
  // Draining the queue may have popped a cancelled entry later than now_;
  // re-base so that schedule_at() between now_ and that time stays legal.
  if (queue_.empty()) queue_.rebase(now_);
  return executed;
}

}  // namespace emptcp::sim
