#include "memsim/memsim.h"

#include <algorithm>
#include <queue>

#include "common/macros.h"

namespace amac::memsim {

MachineConfig MachineConfig::XeonX5670() {
  MachineConfig m;
  m.name = "Xeon x5670 (modeled)";
  m.sockets = 2;             // experiments use one unless scatter_sockets
  m.cores_per_socket = 6;
  m.smt_per_core = 2;
  m.mshrs_per_core = 10;     // paper §5.1: "10 L1-D MSHRs" [14]
  m.gq_entries = 32;         // paper §5.1.1: Global Queue, 32 load entries [22]
  m.mem_latency = 200;
  m.issue_width = 4;         // 4-wide OoO (Table 2)
  return m;
}

MachineConfig MachineConfig::SparcT4() {
  MachineConfig m;
  m.name = "SPARC T4 (modeled)";
  m.sockets = 1;
  m.cores_per_socket = 8;
  m.smt_per_core = 8;
  m.mshrs_per_core = 10;
  m.gq_entries = 128;        // banked L2/memory hierarchy: no shared-queue wall
  m.mem_latency = 240;
  m.issue_width = 2;         // 2-wide OoO (Table 2)
  return m;
}

namespace {

enum class SlotState : uint8_t { kEmpty, kWaiting, kReady };

struct Slot {
  SlotState state = SlotState::kEmpty;
  uint32_t remaining = 0;   ///< dependent accesses left in the lookup
  uint32_t visits_left = 0; ///< SPP: scheduled stage visits before bailout
  bool needs_issue = false; ///< stage executed, access not yet issued (MSHR full)
};

struct Thread {
  uint32_t id = 0;
  uint32_t core = 0;
  uint32_t socket = 0;
  std::vector<Slot> slots;
  uint32_t cursor = 0;
  // GP phase machine: 0 = init, 1..stages = staged pass, stages+1 = cleanup.
  uint32_t gp_stage = 0;
  uint32_t gp_pos = 0;
  uint64_t next_lookup = 0;
  uint64_t lookups_done = 0;
  /// SPP: slot whose pipeline schedule expired and is draining
  /// synchronously (UINT32_MAX = none).
  uint32_t bailout_slot = UINT32_MAX;
  bool sleeping = false;
  bool finished = false;
  double instructions = 0;
  uint64_t wait_events = 0;  ///< stalls on in-flight data
  /// LLC-queue fill delay, expressed in equivalent full-latency misses —
  /// the model's analogue of "prefetches do not arrive in a timely
  /// manner", which hardware observes as L1-D MSHR hits (Table 4).
  double late_fills = 0;
};

struct Core {
  uint64_t free_time = 0;
  uint32_t mshrs_used = 0;  ///< L1-D miss registers
};

struct Socket {
  uint32_t gq_used = 0;
  std::queue<uint32_t> gq_waiters;  ///< access ids waiting for a queue slot
};

struct Access {
  uint32_t thread = 0;
  uint32_t slot = 0;
  uint64_t issue_time = 0;
  bool in_gq = false;
  bool queued = false;      ///< had to wait for an LLC queue slot
};

struct Event {
  uint64_t time;
  uint64_t seq;
  enum Kind : uint8_t { kThreadWake, kAccessDone } kind;
  uint32_t id;  // thread id or access id
  bool operator>(const Event& o) const {
    return time != o.time ? time > o.time : seq > o.seq;
  }
};

class Sim {
 public:
  Sim(const MachineConfig& machine, const SimConfig& config)
      : m_(machine), c_(config) {
    AMAC_CHECK(c_.chain_lengths != nullptr && !c_.chain_lengths->empty());
    AMAC_CHECK(c_.num_threads >= 1);
    const uint32_t total_cores = m_.sockets * m_.cores_per_socket;
    const uint32_t max_threads =
        (c_.scatter_sockets ? total_cores : m_.cores_per_socket) *
        m_.smt_per_core;
    AMAC_CHECK_MSG(c_.num_threads <= max_threads,
                   "more threads than hardware contexts");
    inflight_ = c_.policy == ExecPolicy::kSequential
                    ? 1
                    : std::max(1u, c_.inflight);
    stages_ = std::max<uint32_t>(1, c_.stages);

    cores_.resize(total_cores);
    sockets_.resize(m_.sockets);
    threads_.resize(c_.num_threads);
    for (uint32_t t = 0; t < c_.num_threads; ++t) {
      Thread& th = threads_[t];
      th.id = t;
      // Placement: the paper pins threads "first to physical cores ... and
      // we start using SMT threads upon running out of physical cores",
      // all on ONE socket; the "2+2" experiment scatters across sockets.
      uint32_t core;
      if (c_.scatter_sockets) {
        const uint32_t socket = t % m_.sockets;
        const uint32_t idx = t / m_.sockets;
        core = socket * m_.cores_per_socket + idx % m_.cores_per_socket;
      } else {
        core = t % m_.cores_per_socket;  // socket 0 only; SMT layers next
      }
      th.core = core;
      th.socket = core / m_.cores_per_socket;
      th.slots.resize(inflight_);
      Wake(t, 0);
    }
  }

  SimResult Run() {
    while (!events_.empty()) {
      const Event ev = events_.top();
      events_.pop();
      now_ = ev.time;
      if (ev.kind == Event::kThreadWake) {
        threads_[ev.id].sleeping = false;
        StepThread(threads_[ev.id]);
      } else {
        CompleteAccess(ev.id);
      }
    }
    SimResult r;
    r.cycles = makespan_;
    for (const Thread& th : threads_) {
      r.lookups += th.lookups_done;
      r.instructions += th.instructions;
      r.mshr_hits_per_kinstr += th.late_fills;
    }
    r.accesses = accesses_issued_;
    r.ipc = makespan_ > 0 ? r.instructions /
                                (static_cast<double>(makespan_) *
                                 static_cast<double>(c_.num_threads))
                          : 0;
    r.mshr_hits_per_kinstr =
        r.instructions > 0 ? r.mshr_hits_per_kinstr * 1000.0 / r.instructions
                           : 0;
    r.avg_outstanding =
        makespan_ > 0 ? outstanding_area_ / static_cast<double>(makespan_) : 0;
    r.gq_full_waits = gq_full_waits_;
    return r;
  }

 private:
  // -- workload supply ------------------------------------------------------
  uint64_t GlobalLookup(const Thread& th, uint64_t lookup_idx) const {
    return th.id * c_.lookups_per_thread + lookup_idx;
  }

  uint32_t ChainLength(const Thread& th, uint64_t lookup_idx) const {
    const auto& lens = *c_.chain_lengths;
    return std::max<uint32_t>(
        1, lens[GlobalLookup(th, lookup_idx) % lens.size()]);
  }

  bool HasInput(const Thread& th) const {
    return th.next_lookup < c_.lookups_per_thread;
  }

  // -- event plumbing -------------------------------------------------------
  void Wake(uint32_t tid, uint64_t time) {
    Thread& th = threads_[tid];
    if (th.finished) return;
    th.sleeping = true;  // until the wake fires
    events_.push(Event{time, seq_++, Event::kThreadWake, tid});
  }

  void TrackOutstanding(int delta, uint64_t time) {
    // Issues can be stamped slightly ahead of the event clock (at the end
    // of the issuing stage); clamp so the integration stays monotone.
    const uint64_t t = std::max(time, outstanding_since_);
    outstanding_area_ += static_cast<double>(outstanding_) *
                         static_cast<double>(t - outstanding_since_);
    outstanding_since_ = t;
    outstanding_ = static_cast<uint32_t>(static_cast<int>(outstanding_) +
                                         delta);
  }

  // -- memory system --------------------------------------------------------
  /// Try to issue the pending access of `slot`; returns false when the
  /// core's MSHRs are exhausted (caller must retry after a completion).
  bool TryIssue(Thread& th, uint32_t slot_idx, uint64_t time) {
    Core& core = cores_[th.core];
    if (core.mshrs_used >= m_.mshrs_per_core) return false;
    ++core.mshrs_used;
    TrackOutstanding(+1, time);
    const uint32_t access_id = static_cast<uint32_t>(accesses_.size());
    accesses_.push_back(Access{th.id, slot_idx, time, false, false});
    ++accesses_issued_;
    Slot& slot = th.slots[slot_idx];
    slot.needs_issue = false;
    slot.state = SlotState::kWaiting;
    Socket& socket = sockets_[th.socket];
    if (socket.gq_used < m_.gq_entries) {
      ++socket.gq_used;
      accesses_[access_id].in_gq = true;
      events_.push(Event{time + m_.mem_latency, seq_++, Event::kAccessDone,
                         access_id});
    } else {
      ++gq_full_waits_;
      accesses_[access_id].queued = true;
      socket.gq_waiters.push(access_id);  // MSHR stays held: backpressure
    }
    return true;
  }

  void CompleteAccess(uint32_t access_id) {
    const Access access = accesses_[access_id];
    Thread& th = threads_[access.thread];
    Socket& socket = sockets_[th.socket];
    Core& core = cores_[th.core];
    if (access.in_gq) {
      --socket.gq_used;
      if (!socket.gq_waiters.empty()) {
        // Hand the freed LLC queue slot to the oldest waiter.
        const uint32_t next_id = socket.gq_waiters.front();
        socket.gq_waiters.pop();
        ++socket.gq_used;
        accesses_[next_id].in_gq = true;
        events_.push(Event{now_ + m_.mem_latency, seq_++, Event::kAccessDone,
                           next_id});
      }
    }
    --core.mshrs_used;
    TrackOutstanding(-1, now_);
    makespan_ = std::max(makespan_, now_);
    if (access.queued && now_ >= access.issue_time + m_.mem_latency) {
      th.late_fills += static_cast<double>(
                           now_ - access.issue_time - m_.mem_latency) /
                       static_cast<double>(m_.mem_latency);
    }
    AMAC_CHECK_MSG(th.slots[access.slot].state == SlotState::kWaiting,
                   "completion for a slot that was not waiting");
    th.slots[access.slot].state = SlotState::kReady;
    if (th.sleeping == false && !th.finished) {
      // Thread is already scheduled/running; it will see the ready slot.
    } else if (!th.finished) {
      Wake(th.id, now_);
    }
    // A freed MSHR may unblock issue-stalled threads on this core.
    for (Thread& other : threads_) {
      if (other.core == th.core && !other.finished && other.sleeping &&
          HasPendingIssue(other)) {
        Wake(other.id, now_);
      }
    }
  }

  static bool HasPendingIssue(const Thread& th) {
    for (const Slot& s : th.slots) {
      if (s.needs_issue) return true;
    }
    return false;
  }

  // -- CPU model ------------------------------------------------------------
  uint64_t ChargeStage(Thread& th, double instr) {
    Core& core = cores_[th.core];
    const uint64_t start = std::max(now_, core.free_time);
    const uint64_t cycles = std::max<uint64_t>(
        1, static_cast<uint64_t>(instr / m_.issue_width + 0.5));
    core.free_time = start + cycles;
    th.instructions += instr;
    makespan_ = std::max(makespan_, core.free_time);
    return core.free_time;
  }

  // -- lookup lifecycle -----------------------------------------------------
  /// Start the next lookup in `slot` (charges a stage and issues the first
  /// access).  Returns issue success; on MSHR exhaustion the slot is left
  /// with needs_issue set.
  bool StartLookup(Thread& th, uint32_t slot_idx, uint64_t time) {
    Slot& slot = th.slots[slot_idx];
    AMAC_DCHECK(HasInput(th));
    slot.remaining = ChainLength(th, th.next_lookup);
    ++th.next_lookup;
    slot.needs_issue = true;
    return TryIssue(th, slot_idx, time);
  }

  /// Consume the arrived data of `slot` (one node visit): charges CPU and
  /// either issues the next access of the chain or completes the lookup.
  /// Returns the cycle at which the stage finished.
  uint64_t ExecuteStage(Thread& th, uint32_t slot_idx, bool refill) {
    Slot& slot = th.slots[slot_idx];
    AMAC_CHECK_MSG(slot.state == SlotState::kReady && slot.remaining > 0,
                   "slot executed out of protocol");
    const uint64_t end = ChargeStage(th, c_.costs.StageInstr(c_.policy));
    --slot.remaining;
    if (slot.remaining > 0) {
      slot.needs_issue = true;
      TryIssue(th, slot_idx, end);  // may leave needs_issue on MSHR pressure
    } else {
      ++th.lookups_done;
      slot.state = SlotState::kEmpty;
      if (refill && HasInput(th)) {
        StartLookup(th, slot_idx, end);
      }
    }
    return end;
  }

  // -- engine scheduling ----------------------------------------------------
  void StepThread(Thread& th) {
    if (th.finished) return;
    // Retry any issue blocked on MSHRs first; if still blocked, sleep.
    for (uint32_t i = 0; i < th.slots.size(); ++i) {
      if (th.slots[i].needs_issue && !TryIssue(th, i, now_)) {
        th.sleeping = true;
        return;  // woken when an MSHR frees
      }
    }
    switch (c_.policy) {
      case ExecPolicy::kSequential:
      case ExecPolicy::kAmac:
      case ExecPolicy::kCoroutine:  // work-conserving, coroutine-frame cost
      // The vector schedules keep AMAC's work-conserving slot discipline
      // (lane retirement/refill is below the simulator's stage
      // granularity); only their stage instruction cost differs.
      case ExecPolicy::kVectorized:
      case ExecPolicy::kVectorizedAmac:
      case ExecPolicy::kAdaptive:   // resolves upstream; modeled as AMAC
        StepWorkConserving(th);
        break;
      case ExecPolicy::kSoftwarePipelined:
        StepPipelined(th);
        break;
      case ExecPolicy::kGroupPrefetch:
        StepGrouped(th);
        break;
    }
  }

  /// AMAC (and Baseline with one slot): run any ready slot; sleep only when
  /// everything in flight is still outstanding.
  void StepWorkConserving(Thread& th) {
    // Fill empty slots while input remains.
    for (uint32_t i = 0; i < th.slots.size(); ++i) {
      if (th.slots[i].state == SlotState::kEmpty && HasInput(th)) {
        if (!StartLookup(th, i, now_)) {
          th.sleeping = true;
          return;
        }
      }
    }
    // One stage execution per event keeps the event loop simple.
    for (uint32_t scan = 0; scan < th.slots.size(); ++scan) {
      const uint32_t k = (th.cursor + scan) % th.slots.size();
      if (th.slots[k].state == SlotState::kReady) {
        const uint64_t end = ExecuteStage(th, k, /*refill=*/true);
        th.cursor = (k + 1) % th.slots.size();
        Wake(th.id, end);
        return;
      }
    }
    FinishOrSleep(th);
  }

  /// SPP: the cursor's slot *must* be consumed next (static schedule); an
  /// unready scheduled slot stalls the thread even if other slots' data has
  /// arrived.  A lookup that outlives its `stages_` scheduled visits bails
  /// out: the thread drains that one lookup synchronously (the expensive
  /// mechanism the paper ascribes to SPP on long chains).
  void StepPipelined(Thread& th) {
    const bool draining = th.bailout_slot != UINT32_MAX;
    const uint32_t idx = draining ? th.bailout_slot : th.cursor;
    Slot& slot = th.slots[idx];
    if (slot.state == SlotState::kEmpty) {
      th.bailout_slot = UINT32_MAX;
      if (HasInput(th)) {
        if (!StartLookup(th, idx, now_)) {
          th.sleeping = true;
          return;
        }
        slot.visits_left = stages_;
        th.cursor = (idx + 1) % th.slots.size();
        Wake(th.id, cores_[th.core].free_time);
      } else {
        // End of input: drain remaining slots out of order.
        StepWorkConserving(th);
      }
      return;
    }
    if (slot.state == SlotState::kReady) {
      const uint64_t end = ExecuteStage(th, idx, /*refill=*/false);
      if (slot.state == SlotState::kEmpty) {
        // Lookup finished; the slot refills on its next scheduled turn.
        th.bailout_slot = UINT32_MAX;
        if (!draining) th.cursor = (idx + 1) % th.slots.size();
      } else if (!draining) {
        if (--slot.visits_left == 0) {
          th.bailout_slot = idx;  // pipeline slot expired: synchronous drain
        } else {
          th.cursor = (idx + 1) % th.slots.size();
        }
      }
      Wake(th.id, end);
      return;
    }
    // Scheduled (or draining) slot still in flight: the pipeline stalls.
    ++th.wait_events;
    th.sleeping = true;
  }

  /// GP: stage-by-stage over a group; within a stage, lookups are consumed
  /// in fixed order, and finished lookups burn no-op checks. The group is
  /// only refilled once every member finished (cleanup included).
  void StepGrouped(Thread& th) {
    while (true) {
      if (th.gp_stage == 0) {  // init phase: start the whole group
        if (!HasInput(th) && GroupEmpty(th)) {
          FinishOrSleep(th);
          return;
        }
        if (th.gp_pos < th.slots.size()) {
          if (HasInput(th)) {
            const bool issued = StartLookup(th, th.gp_pos, now_);
            ChargeStage(th, c_.costs.StageInstr(c_.policy));
            // Advance regardless of issue success: the pending issue is
            // retried by StepThread's entry loop.  (Re-running StartLookup
            // on the same slot would orphan its outstanding access.)
            ++th.gp_pos;
            if (!issued) {
              th.sleeping = true;
              return;
            }
          } else {
            ++th.gp_pos;
          }
          continue;
        }
        th.gp_stage = 1;
        th.gp_pos = 0;
        continue;
      }
      if (th.gp_stage <= stages_) {  // staged passes
        if (th.gp_pos >= th.slots.size()) {
          ++th.gp_stage;
          th.gp_pos = 0;
          continue;
        }
        Slot& slot = th.slots[th.gp_pos];
        if (slot.state == SlotState::kEmpty) {
          ChargeStage(th, c_.costs.noop_instr);  // status check on done slot
          ++th.gp_pos;
          continue;
        }
        if (slot.state == SlotState::kWaiting) {
          ++th.wait_events;  // group coupling: stall on this member
          th.sleeping = true;
          return;
        }
        const uint64_t end = ExecuteStage(th, th.gp_pos, /*refill=*/false);
        ++th.gp_pos;
        Wake(th.id, end);
        return;
      }
      // Cleanup pass: finish stragglers synchronously, in order.
      if (th.gp_pos >= th.slots.size()) {
        th.gp_stage = 0;  // group complete; next group
        th.gp_pos = 0;
        continue;
      }
      Slot& slot = th.slots[th.gp_pos];
      if (slot.state == SlotState::kEmpty) {
        ++th.gp_pos;
        continue;
      }
      if (slot.state == SlotState::kWaiting) {
        ++th.wait_events;
        th.sleeping = true;
        return;
      }
      const uint64_t end = ExecuteStage(th, th.gp_pos, /*refill=*/false);
      Wake(th.id, end);
      return;
    }
  }

  bool GroupEmpty(const Thread& th) const {
    for (const Slot& s : th.slots) {
      if (s.state != SlotState::kEmpty) return false;
    }
    return true;
  }

  void FinishOrSleep(Thread& th) {
    bool any_inflight = false;
    for (const Slot& s : th.slots) {
      if (s.state != SlotState::kEmpty) any_inflight = true;
    }
    if (!any_inflight && !HasInput(th)) {
      th.finished = true;
      return;
    }
    ++th.wait_events;  // nothing consumable: stalled on in-flight data
    th.sleeping = true;
  }

  const MachineConfig& m_;
  const SimConfig& c_;
  uint32_t inflight_ = 1;
  uint32_t stages_ = 1;

  std::vector<Thread> threads_;
  std::vector<Core> cores_;
  std::vector<Socket> sockets_;
  std::vector<Access> accesses_;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events_;
  uint64_t seq_ = 0;
  uint64_t now_ = 0;
  uint64_t makespan_ = 0;
  uint64_t accesses_issued_ = 0;
  uint64_t gq_full_waits_ = 0;
  uint32_t outstanding_ = 0;
  uint64_t outstanding_since_ = 0;
  double outstanding_area_ = 0;
};

}  // namespace

SimResult Simulate(const MachineConfig& machine, const SimConfig& config) {
  Sim sim(machine, config);
  return sim.Run();
}

}  // namespace amac::memsim
