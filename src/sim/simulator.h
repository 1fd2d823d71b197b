// Discrete-event simulation core. A Simulator owns a virtual clock and an
// event queue; components schedule closures at absolute or relative virtual
// times. Events at equal times fire in scheduling order (stable FIFO
// tie-break) so runs are fully deterministic for a given seed.
//
// Hot-path layout: the queue is a calendar of same-time buckets. The
// paper's model is synchronous (every unit wakes, sleeps and revalidates on
// the broadcast boundaries T_i = i*L), so pending events pile up on a
// handful of instants and, within one instant, dispatch is plain FIFO.
// Each bucket is therefore a FIFO of 4-byte slot ids for one time, held in
// 64-byte chunks drawn from one recycled pool (a bucket of one id — most
// off-grid times — lives in its heap entry and takes no chunk); a 4-ary
// heap orders the buckets, not the events, so a push onto an existing time
// is O(1) and only a new distinct time pays an O(log D) sift, D = distinct
// pending times. The callback lives in a slot slab indexed by the id — no
// hash lookup and no per-event node allocation (slots and chunks recycle
// through free lists, so storage tracks *peak pending* events, not run
// length). Dispatch prefetches the slots a few ids ahead in the current
// bucket, which hides the slab's cache misses across a tick wave.
// Cancellation is a tombstone flag in the slot, checked when the id reaches
// the head of the earliest bucket; Cancel() is O(1) and cancelled ids are
// skipped lazily at dispatch time (their callbacks are destroyed eagerly).
//
// Bucket invariant: a bucket accepts a push only while it is the newest
// bucket at its time. Pushes find that bucket through a small direct-mapped
// table keyed by time; a bucket whose table entry is taken over by another
// time is *sealed* (no longer findable), and a later push at its time opens
// a fresh bucket. Buckets are ordered by (time, seq of their first id), and
// seq rises with push order, so the dispatch order is exactly the global
// (time, seq) order — the same order a heap over individual events gives.

#ifndef MOBICACHE_SIM_SIMULATOR_H_
#define MOBICACHE_SIM_SIMULATOR_H_

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/status.h"

namespace mobicache {

/// Virtual time in seconds.
using SimTime = double;

/// Move-only `void()` callable with fixed small-buffer storage and no heap
/// fallback: every event callback in the simulator lives inline in its slot,
/// so scheduling and dispatching allocate nothing. The capture budget is
/// enforced at compile time — a closure that outgrows kInlineBytes is a
/// static_assert, not a silent allocation. 48 bytes covers every current
/// caller (the largest is the server's delivery closure at 40 bytes: a
/// pointer, a shared_ptr, and two doubles) with one pointer of headroom.
class EventFn {
 public:
  static constexpr size_t kInlineBytes = 48;
  static constexpr size_t kInlineAlign = alignof(void*);

  EventFn() = default;
  EventFn(std::nullptr_t) {}  // NOLINT: mirrors std::function conversions

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                !std::is_same_v<std::decay_t<F>, std::nullptr_t>>>
  EventFn(F&& f) {  // NOLINT: implicit, mirrors std::function
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kInlineBytes,
                  "event closure exceeds the EventFn small-buffer budget; "
                  "shrink the capture list (EventFn has no heap fallback)");
    static_assert(alignof(Fn) <= kInlineAlign,
                  "event closure is over-aligned for EventFn inline storage");
    static_assert(std::is_invocable_r_v<void, Fn&>,
                  "EventFn requires a void() callable");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    ops_ = &OpsFor<Fn>::kOps;
  }

  /// Destroys the current callable (if any) and constructs `f` directly in
  /// the inline storage. The scheduler uses this to build callbacks in their
  /// slot instead of relocating them through a temporary.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                !std::is_same_v<std::decay_t<F>, std::nullptr_t>>>
  void Emplace(F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kInlineBytes,
                  "event closure exceeds the EventFn small-buffer budget; "
                  "shrink the capture list (EventFn has no heap fallback)");
    static_assert(alignof(Fn) <= kInlineAlign,
                  "event closure is over-aligned for EventFn inline storage");
    static_assert(std::is_invocable_r_v<void, Fn&>,
                  "EventFn requires a void() callable");
    Reset();
    // Placement new into the inline SBO buffer — constructs in place, does
    // not touch the heap. detlint:allow(alloc-event-path)
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    ops_ = &OpsFor<Fn>::kOps;
  }

  EventFn(EventFn&& other) noexcept { MoveFrom(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  EventFn& operator=(std::nullptr_t) {
    Reset();
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }
  friend bool operator==(const EventFn& f, std::nullptr_t) { return !f; }
  friend bool operator!=(const EventFn& f, std::nullptr_t) {
    return static_cast<bool>(f);
  }

  void operator()() { ops_->invoke(storage_); }

 private:
  struct Ops {
    void (*invoke)(void* self);
    /// Move-constructs `dst` from `src`, then destroys `src`.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* self);
  };

  template <typename Fn>
  struct OpsFor {
    static void Invoke(void* self) { (*static_cast<Fn*>(self))(); }
    static void Relocate(void* dst, void* src) {
      Fn* from = static_cast<Fn*>(src);
      ::new (dst) Fn(std::move(*from));
      from->~Fn();
    }
    static void Destroy(void* self) { static_cast<Fn*>(self)->~Fn(); }
    static constexpr Ops kOps{&Invoke, &Relocate, &Destroy};
  };

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }
  void MoveFrom(EventFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(kInlineAlign) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// Identifies a scheduled event; usable to cancel it before it fires.
/// Treat as opaque: `seq` is a lifetime-unique event number (0 = never a
/// real event, so a default EventId cancels nothing) and `slot` locates the
/// event's callback storage.
struct EventId {
  uint64_t seq = 0;
  uint32_t slot = 0;
};

/// Deterministic single-threaded discrete-event scheduler.
class Simulator {
 public:
  Simulator() = default;

  // Simulator hands out raw pointers to itself via closures; moving it would
  // invalidate them.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time. Starts at 0.
  SimTime Now() const { return now_; }

  /// Schedules `fn` to run at absolute time `when`. `when` must be >= Now().
  /// Returns an id usable with Cancel(). The callback is stored inline in
  /// the event slot (see EventFn) — no per-event heap allocation.
  EventId ScheduleAt(SimTime when, EventFn fn);

  /// Schedules `fn` to run `delay` seconds from now (delay >= 0).
  EventId ScheduleAfter(SimTime delay, EventFn fn);

  /// Perfect-forwarding overloads: the closure is constructed directly in
  /// its event slot, skipping the relocate through a temporary EventFn that
  /// the by-value overloads pay. On the hot scheduling paths (one reschedule
  /// per update and per query arrival) that is the difference between one
  /// and two closure moves per event.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                !std::is_same_v<std::decay_t<F>, std::nullptr_t>>>
  EventId ScheduleAt(SimTime when, F&& f) {
    const uint32_t slot = AcquireSlot();
    slots_[slot].fn.Emplace(std::forward<F>(f));
    return FinishSchedule(when, slot);
  }

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                !std::is_same_v<std::decay_t<F>, std::nullptr_t>>>
  EventId ScheduleAfter(SimTime delay, F&& f) {
    assert(delay >= 0.0);
    return ScheduleAt(now_ + delay, std::forward<F>(f));
  }

  /// Cancels a pending event in O(1). Returns true if the event existed and
  /// had not yet fired (lazy removal: the slot stays queued but becomes a
  /// no-op).
  bool Cancel(EventId id);

  /// Runs events until the queue is empty or Stop() is called.
  /// Returns the number of events dispatched by this call.
  uint64_t Run();

  /// Runs events with time <= `end`, then sets the clock to `end` (if it is
  /// beyond the last event). Returns the number of events dispatched. If
  /// Stop() ends the call while a live event at or before `end` is still
  /// queued, the clock stays at the stopped event's time, so a later run
  /// call never moves it backwards.
  uint64_t RunUntil(SimTime end);

  /// Runs events with time strictly < `end`, then sets the clock to `end`
  /// (with the same Stop() exception as RunUntil, for events before `end`).
  /// Events scheduled at exactly `end` stay queued and fire on the next
  /// run call — the lockstep sharded engine uses this to advance every
  /// shard to an interval boundary while leaving the boundary's own events
  /// (the next tick wave) to the following window.
  uint64_t RunUntilBefore(SimTime end);

  /// Pre-sizes the slot slab, its free list, and the heap over buckets for
  /// `pending_events` simultaneously queued events, so populations that
  /// schedule about one pending event per unit (10^6 per shard) never
  /// reallocate them mid-run. The id chunks are sized for
  /// twice the chunks those events fill (room for one partly filled chunk
  /// per pending time on a tick schedule); a schedule spread over more
  /// times grows the chunk pool to its high-water mark during warm-up.
  void Reserve(size_t pending_events);

  /// Dispatches exactly one event if any is pending. Returns true if an
  /// event ran.
  bool Step();

  /// Makes Run()/RunUntil() return after the current event completes.
  void Stop() { stopped_ = true; }

  /// Number of events still queued (including cancelled placeholders).
  size_t PendingEvents() const { return queued_; }

  /// Time of the earliest live pending event; +infinity when none remain.
  /// Cancelled tombstones are dropped off the head of the earliest bucket
  /// on the way (their slots recycle), which is why this is not const — the
  /// observable schedule is unchanged. The quiet-stretch skip uses this to
  /// bound how far it may replay interval work without an event firing in
  /// between.
  SimTime NextEventTime();

  /// Whether an event at time `t` would still dispatch inside the run call
  /// currently executing: RunUntil(end) dispatches events with time <= end,
  /// RunUntilBefore(end) strictly <, and Run()/Step() are unbounded.
  /// Meaningful only from inside an event callback (the bound is stamped at
  /// each run call's entry and not cleared on return).
  bool WithinRunHorizon(SimTime t) const {
    return run_horizon_inclusive_ ? t <= run_horizon_ : t < run_horizon_;
  }

  /// The bound of the run call currently executing (see WithinRunHorizon).
  SimTime run_horizon() const { return run_horizon_; }

  /// Total events dispatched over the simulator's lifetime.
  uint64_t DispatchedEvents() const { return dispatched_; }

 private:
  static constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();
  /// BucketRef::chunk of a one-id bucket, whose id the ref itself holds;
  /// in the open table, "a one-id bucket was opened at this time".
  static constexpr uint32_t kInline = kNone - 1;
  /// Slot ids per chunk: with the bucket header and link, 64 bytes.
  static constexpr uint32_t kChunkIds = 10;
  /// Ids ahead of the dispatch head whose slots each pop prefetches.
  static constexpr uint32_t kPrefetchAhead = 4;
  /// log2 of the direct-mapped open-bucket table's entries. A collision
  /// only seals a bucket early, and the time a push mostly targets (the
  /// next boundary) keeps its entry hot, so 256 entries (2 KB per
  /// simulator; sweeps keep hundreds alive) serve a shard whose sleepers
  /// hold wake boundaries up to 512 intervals ahead.
  static constexpr uint32_t kOpenBits = 8;

  /// Callback storage for one pending event. A slot is owned by exactly one
  /// queued id (matching seq) from ScheduleAt until that id is popped, then
  /// recycled through the free list. The callback bytes live inline in the
  /// slot (EventFn small buffer), so the slab is flat storage with no
  /// per-event pointer chasing or allocation.
  struct Slot {
    EventFn fn;
    uint64_t seq = 0;
    bool cancelled = false;
  };

  /// A run of a chunked bucket's FIFO. The bucket is named by its head
  /// chunk (the one holding its next id to pop), whose header fields
  /// describe the whole FIFO: ids [head, tail) of the chain head chunk ->
  /// ... -> tail_chunk, where `head` indexes this chunk and `tail` the tail
  /// chunk. Header fields of any other chunk are unused.
  struct Chunk {
    SimTime when;
    uint32_t tail_chunk;
    uint32_t head;
    uint32_t tail;
    uint32_t next;  // next chunk of the FIFO, or the free-list link
    uint32_t ids[kChunkIds];
  };
  static_assert(sizeof(Chunk) == 64, "kChunkIds sizes a chunk to 64 bytes");

  /// Open-bucket table entry: `tag` (more bits of the time's hash) rejects
  /// most stale entries without reading the bucket's chunk.
  struct OpenEntry {
    uint32_t bucket = kNone;  // head chunk, kInline, or kNone
    uint32_t tag = 0;
  };

  /// Heap entry over buckets: earliest time first, then the bucket whose
  /// first id was pushed first (an older, sealed bucket at the same time).
  /// `head` caches the bucket's next id, so peeking at the earliest event
  /// reads no chunk, and a one-id bucket needs no chunk at all.
  struct BucketRef {
    SimTime when;
    uint64_t first_seq;
    uint32_t chunk;  // head chunk, or kInline
    uint32_t head;
    bool Before(const BucketRef& other) const {
      if (when != other.when) return when < other.when;
      return first_seq < other.first_seq;
    }
  };

  /// Pops a recycled slot (or grows the slab) for an event about to be
  /// scheduled; the caller fills the slot's callback before FinishSchedule.
  uint32_t AcquireSlot();
  /// Clears the slot's seq (a Cancel() with the old id must miss) and
  /// returns it to the free list.
  void ReleaseSlot(uint32_t slot);
  /// Stamps the slot with a fresh seq, enqueues it, and returns the event
  /// id. Asserts the time ordering contract.
  EventId FinishSchedule(SimTime when, uint32_t slot);
  /// Appends `slot` (stamped `seq`) to the open bucket at `when`, or opens
  /// a new bucket (sealing whichever bucket held the table entry): a
  /// one-id bucket for the first push the entry sees at `when` — most
  /// distinct times never get a second — and a chunked one for the next.
  void Enqueue(SimTime when, uint64_t seq, uint32_t slot);
  uint32_t AcquireChunk();
  void IndexPush(BucketRef ref);
  void IndexPopRoot();
  /// Removes the earliest bucket's next id (retiring the bucket once it is
  /// empty), prefetches the slot kPrefetchAhead ids further on, and returns
  /// the removed id.
  uint32_t PopRootHead();
  /// Drops cancelled ids (and recycles their slots) off the earliest
  /// bucket; afterwards the next id of the earliest bucket, if any, is a
  /// live event. Returns false if the queue is empty.
  bool SkipCancelledTop();
  /// Pops the earliest live id, moves its callback out, recycles its slot,
  /// advances the clock, and returns the callback ready to invoke. Requires
  /// a preceding successful SkipCancelledTop().
  EventFn TakeRootForDispatch();
  /// Sets the clock to `end` after a RunUntil/RunUntilBefore loop, unless a
  /// Stop() left a live event that the call should have dispatched.
  void FinishRunTo(SimTime end, bool inclusive);

  SimTime now_ = 0.0;
  uint64_t next_seq_ = 1;  // 0 is reserved so a default EventId is inert
  uint64_t dispatched_ = 0;
  size_t queued_ = 0;  // ids in all buckets, tombstones included
  bool stopped_ = false;
  SimTime run_horizon_ = std::numeric_limits<SimTime>::infinity();
  bool run_horizon_inclusive_ = true;
  std::vector<BucketRef> index_;  // 4-ary min-heap over live buckets
  std::vector<Chunk> chunks_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  uint32_t free_chunk_ = kNone;  // head of the chunk free list
  /// Open bucket per time hash; see the bucket invariant.
  std::array<OpenEntry, size_t{1} << kOpenBits> open_{};
};

/// Repeatedly invokes a callback with a fixed period, starting at `start`.
/// The callback receives the tick index (0-based). Owned by the caller; the
/// schedule stops when the object is destroyed or Stop() is called. Stop()
/// may be called from inside the callback: the tick Fire() has already
/// rescheduled is cancelled and ticks_fired() freezes.
class PeriodicProcess {
 public:
  /// `period` must be > 0. Does not schedule anything until Start().
  PeriodicProcess(Simulator* sim, SimTime start, SimTime period,
                  std::function<void(uint64_t)> on_tick);
  ~PeriodicProcess();

  PeriodicProcess(const PeriodicProcess&) = delete;
  PeriodicProcess& operator=(const PeriodicProcess&) = delete;

  /// Schedules the first tick. Returns InvalidArgument on a bad period.
  Status Start();

  /// Cancels any pending tick; idempotent.
  void Stop();

  /// Takes the pending tick out of the scheduler while the caller replays
  /// tick work inline, so it does not show up as a pending event (e.g. in
  /// Simulator::NextEventTime()). The process stays active; the caller MUST
  /// re-arm with SkipTicks() before returning to the event loop — forgetting
  /// to stalls the schedule. Only meaningful while active().
  void SuspendPending();

  /// Re-arms after SuspendPending(), accounting `count` ticks as fired
  /// without dispatching them: ticks_fired() jumps by `count` (so the next
  /// on_tick_ receives the index it would have had) and the next tick is
  /// scheduled at the time the skipped run would have reached — advanced by
  /// the same repeated `+= period` additions Fire()'s rescheduling performs,
  /// so boundary doubles stay bit-identical. SkipTicks(0) just re-issues the
  /// suspended tick at its original time.
  void SkipTicks(uint64_t count);

  bool active() const { return active_; }
  uint64_t ticks_fired() const { return ticks_fired_; }

  /// Scheduled time of the next tick. Valid while active(), including while
  /// suspended (the time the re-issued tick would get under SkipTicks(0)).
  SimTime pending_time() const { return pending_time_; }

 private:
  void Fire();

  Simulator* sim_;
  SimTime start_;
  SimTime period_;
  std::function<void(uint64_t)> on_tick_;
  EventId pending_{};
  SimTime pending_time_ = 0.0;
  bool active_ = false;
  uint64_t ticks_fired_ = 0;
};

}  // namespace mobicache

#endif  // MOBICACHE_SIM_SIMULATOR_H_
