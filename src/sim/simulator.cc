#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

namespace mobicache {

namespace {
// The bucket index is a 4-ary min-heap with hole insertion: shallower than a
// binary heap and one move per level instead of a three-move swap. Dispatch
// order is independent of heap shape because (when, first_seq) keys are
// unique and every pop extracts the minimum.
constexpr size_t kHeapArity = 4;

/// Grows a recycled pool by one default element and returns its index.
/// Pools grow only past their high-water mark (every release goes to a
/// free list), so at steady state this is never reached.
template <typename T>
uint32_t GrowPool(std::vector<T>* pool) {
  const uint32_t index = static_cast<uint32_t>(pool->size());
  // High-water growth of the slot or chunk pool; capacity is never
  // released. detlint:allow(alloc-event-path)
  pool->emplace_back();
  return index;
}

/// Prefetches both cache lines a 72-byte slot may straddle.
template <typename T>
inline void PrefetchObject(const T* p) {
#if defined(__GNUC__)
  __builtin_prefetch(p, /*rw=*/1, /*locality=*/3);
  __builtin_prefetch(reinterpret_cast<const char*>(p) + sizeof(T) - 1,
                     /*rw=*/1, /*locality=*/3);
#else
  (void)p;
#endif
}
}  // namespace

void Simulator::IndexPush(BucketRef ref) {
  size_t i = index_.size();
  // Amortized high-water growth: the index never shrinks, so at steady
  // state this push reuses retained capacity. detlint:allow(alloc-event-path)
  index_.push_back(ref);  // reserve the hole
  while (i > 0) {
    const size_t parent = (i - 1) / kHeapArity;
    if (!ref.Before(index_[parent])) break;
    index_[i] = index_[parent];
    i = parent;
  }
  index_[i] = ref;
}

void Simulator::IndexPopRoot() {
  assert(!index_.empty());
  const BucketRef filler = index_.back();
  index_.pop_back();
  const size_t n = index_.size();
  if (n == 0) return;
  size_t i = 0;
  while (true) {
    const size_t first_child = kHeapArity * i + 1;
    if (first_child >= n) break;
    const size_t last_child = std::min(first_child + kHeapArity, n);
    size_t best = first_child;
    for (size_t c = first_child + 1; c < last_child; ++c) {
      if (index_[c].Before(index_[best])) best = c;
    }
    if (!index_[best].Before(filler)) break;
    index_[i] = index_[best];
    i = best;
  }
  index_[i] = filler;
}

namespace {
/// 64-bit hash of time `when`: the top bits pick the open-table entry, the
/// low 32 are its tag, so both halves must depend on every bit of the time
/// (grid times such as k/4 have all-zero low mantissa bits, which a bare
/// multiply would leave in the low half). Dropping the sign bit folds -0.0
/// into +0.0 — the two compare equal, so they must share one open bucket —
/// and touches no other time, since times are never negative.
inline uint64_t TimeHash(SimTime when) {
  uint64_t key;
  std::memcpy(&key, &when, sizeof key);
  key &= ~(uint64_t{1} << 63);
  key ^= key >> 32;
  key *= 0xD6E8FEB86659FD93ULL;
  return key ^ (key >> 32);
}
}  // namespace

uint32_t Simulator::AcquireChunk() {
  if (free_chunk_ == kNone) return GrowPool(&chunks_);
  const uint32_t chunk = free_chunk_;
  free_chunk_ = chunks_[chunk].next;
  return chunk;
}

void Simulator::Enqueue(SimTime when, uint64_t seq, uint32_t slot) {
  const uint64_t hash = TimeHash(when);
  const uint32_t tag = static_cast<uint32_t>(hash);
  OpenEntry& open = open_[hash >> (64 - kOpenBits)];
  if (open.tag == tag && open.bucket < kInline &&
      chunks_[open.bucket].when == when) {
    const uint32_t bucket = open.bucket;
    uint32_t tail_chunk = chunks_[bucket].tail_chunk;
    if (chunks_[bucket].tail == kChunkIds) {
      const uint32_t chunk = AcquireChunk();
      chunks_[chunk].next = kNone;
      chunks_[tail_chunk].next = chunk;
      chunks_[bucket].tail_chunk = chunk;
      chunks_[bucket].tail = 0;
      tail_chunk = chunk;
    }
    chunks_[tail_chunk].ids[chunks_[bucket].tail++] = slot;
    return;
  }
  // No open bucket at `when`: open one. Whatever bucket held this table
  // entry is sealed — it stays queued, but later pushes at its time open a
  // new bucket with a larger first seq. A one-id bucket is always sealed:
  // its entry only records that the time was seen (a tag collision merely
  // opens a chunked bucket where a one-id one would have done).
  if (open.tag != tag || open.bucket != kInline) {
    IndexPush(BucketRef{when, seq, kInline, slot});
    open = OpenEntry{kInline, tag};
    return;
  }
  const uint32_t bucket = AcquireChunk();
  Chunk& c = chunks_[bucket];
  c.when = when;
  c.tail_chunk = bucket;
  c.head = 0;
  c.tail = 1;
  c.next = kNone;
  c.ids[0] = slot;
  IndexPush(BucketRef{when, seq, bucket, slot});
  open = OpenEntry{bucket, tag};
}

uint32_t Simulator::PopRootHead() {
  BucketRef& root = index_.front();
  const uint32_t id = root.head;
  --queued_;
  if (root.chunk == kInline) {
    IndexPopRoot();
    return id;
  }
  const uint32_t bucket = root.chunk;
  Chunk& c = chunks_[bucket];
  const uint32_t pos = c.head++;
  const bool last_chunk = c.tail_chunk == bucket;
  // Warm the slot kPrefetchAhead ids on, in this chunk or the next one; the
  // dispatch loop reaches it after that many callbacks.
  const uint32_t ahead = pos + kPrefetchAhead;
  if (ahead < kChunkIds) {
    if (!last_chunk || ahead < c.tail) PrefetchObject(&slots_[c.ids[ahead]]);
  } else if (!last_chunk) {
    const uint32_t spill = ahead - kChunkIds;
    if (c.next != c.tail_chunk || spill < c.tail) {
      PrefetchObject(&slots_[chunks_[c.next].ids[spill]]);
    }
  }
  if (last_chunk ? c.head < c.tail : c.head < kChunkIds) {
    root.head = c.ids[c.head];
    return id;
  }
  OpenEntry& open = open_[TimeHash(c.when) >> (64 - kOpenBits)];
  if (last_chunk) {
    // Empty: retire the bucket with its table entry.
    if (open.bucket == bucket) open.bucket = kNone;
    IndexPopRoot();
  } else {
    // The next chunk becomes the head and takes over the header (and the
    // bucket's name, in the index and the table).
    Chunk& next = chunks_[c.next];
    next.when = c.when;
    next.tail_chunk = c.tail_chunk;
    next.head = 0;
    next.tail = c.tail;
    root.chunk = c.next;
    root.head = next.ids[0];
    if (open.bucket == bucket) open.bucket = c.next;
  }
  c.next = free_chunk_;
  free_chunk_ = bucket;
  return id;
}

void Simulator::ReleaseSlot(uint32_t slot) {
  slots_[slot].seq = 0;  // slot no longer answers for this event
  // Returns a slot to the free list; its capacity is bounded by the slot
  // pool's high-water mark, so this never allocates at steady state.
  // detlint:allow(alloc-event-path)
  free_slots_.push_back(slot);
}

bool Simulator::SkipCancelledTop() {
  while (!index_.empty()) {
    const uint32_t slot = index_.front().head;
    if (!slots_[slot].cancelled) return true;
    PopRootHead();
    ReleaseSlot(slot);
  }
  return false;
}

EventFn Simulator::TakeRootForDispatch() {
  const SimTime when = index_.front().when;
  const uint32_t id = PopRootHead();
  Slot& slot = slots_[id];
  EventFn fn = std::move(slot.fn);
  slot.fn = nullptr;
  ReleaseSlot(id);  // a Cancel() with the fired event's id must miss
  now_ = when;
  ++dispatched_;
  return fn;
}

uint32_t Simulator::AcquireSlot() {
  if (free_slots_.empty()) return GrowPool(&slots_);
  const uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

EventId Simulator::FinishSchedule(SimTime when, uint32_t slot) {
  assert(when >= now_ && "cannot schedule in the past");
  assert(slots_[slot].fn != nullptr);
  const uint64_t seq = next_seq_++;
  Slot& s = slots_[slot];
  s.seq = seq;
  s.cancelled = false;
  Enqueue(when, seq, slot);
  ++queued_;
  return EventId{seq, slot};
}

EventId Simulator::ScheduleAt(SimTime when, EventFn fn) {
  assert(fn != nullptr);
  const uint32_t slot = AcquireSlot();
  slots_[slot].fn = std::move(fn);
  return FinishSchedule(when, slot);
}

EventId Simulator::ScheduleAfter(SimTime delay, EventFn fn) {
  assert(delay >= 0.0);
  return ScheduleAt(now_ + delay, std::move(fn));
}

bool Simulator::Cancel(EventId id) {
  if (id.seq == 0 || id.slot >= slots_.size()) return false;
  Slot& slot = slots_[id.slot];
  // The slot still belongs to this event only if the seq matches: a fired
  // or already-cancelled event's slot is recycled (or flagged) by then.
  if (slot.seq != id.seq || slot.cancelled) return false;
  slot.cancelled = true;
  slot.fn = nullptr;  // release captured resources eagerly
  return true;
}

SimTime Simulator::NextEventTime() {
  if (!SkipCancelledTop()) return std::numeric_limits<SimTime>::infinity();
  return index_.front().when;
}

uint64_t Simulator::Run() {
  stopped_ = false;
  uint64_t n = 0;
  while (!stopped_ && SkipCancelledTop()) {
    EventFn fn = TakeRootForDispatch();
    ++n;
    fn();
  }
  return n;
}

void Simulator::FinishRunTo(SimTime end, bool inclusive) {
  if (now_ >= end) return;
  if (stopped_) {
    const SimTime next = NextEventTime();
    if (inclusive ? next <= end : next < end) return;
  }
  now_ = end;
}

uint64_t Simulator::RunUntil(SimTime end) {
  assert(end >= now_);
  stopped_ = false;
  uint64_t n = 0;
  while (!stopped_ && SkipCancelledTop()) {
    if (index_.front().when > end) break;
    EventFn fn = TakeRootForDispatch();
    ++n;
    fn();
  }
  FinishRunTo(end, /*inclusive=*/true);
  return n;
}

uint64_t Simulator::RunUntilBefore(SimTime end) {
  assert(end >= now_);
  stopped_ = false;
  uint64_t n = 0;
  while (!stopped_ && SkipCancelledTop()) {
    if (index_.front().when >= end) break;
    EventFn fn = TakeRootForDispatch();
    ++n;
    fn();
  }
  FinishRunTo(end, /*inclusive=*/false);
  return n;
}

void Simulator::Reserve(size_t pending_events) {
  slots_.reserve(pending_events);
  free_slots_.reserve(pending_events);
  index_.reserve(pending_events);
  chunks_.reserve(2 * (pending_events / kChunkIds) + 1);
}

bool Simulator::Step() {
  stopped_ = false;
  if (!SkipCancelledTop()) return false;
  EventFn fn = TakeRootForDispatch();
  fn();
  return true;
}

PeriodicProcess::PeriodicProcess(Simulator* sim, SimTime start, SimTime period,
                                 std::function<void(uint64_t)> on_tick)
    : sim_(sim),
      start_(start),
      period_(period),
      on_tick_(std::move(on_tick)) {}

PeriodicProcess::~PeriodicProcess() { Stop(); }

Status PeriodicProcess::Start() {
  if (period_ <= 0.0) {
    return Status::InvalidArgument("PeriodicProcess period must be > 0");
  }
  if (start_ < sim_->Now()) {
    return Status::InvalidArgument("PeriodicProcess start is in the past");
  }
  if (active_) return Status::FailedPrecondition("already started");
  active_ = true;
  pending_ = sim_->ScheduleAt(start_, [this] { Fire(); });
  return Status::OK();
}

void PeriodicProcess::Stop() {
  if (!active_) return;
  // pending_ is always the *next* tick: Fire() reassigns it to the freshly
  // rescheduled event before invoking the callback, so a Stop() from inside
  // on_tick_ cancels that fresh event rather than leaving it to fire (and
  // keep ticks_fired_ counting) against a dead process.
  sim_->Cancel(pending_);
  pending_ = EventId{};
  active_ = false;
}

void PeriodicProcess::Fire() {
  if (!active_) return;  // defensive: a cancelled tick must never count
  const uint64_t tick = ticks_fired_++;
  // Reschedule before invoking the callback so the callback may Stop() us
  // (see Stop()), and so the next tick keeps its FIFO slot relative to
  // events the callback schedules at the same virtual time.
  pending_ = sim_->ScheduleAfter(period_, [this] { Fire(); });
  on_tick_(tick);
}

}  // namespace mobicache
