#include "sim/simulator.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

namespace contjoin::sim {

thread_local Simulator::ExecContext Simulator::exec_context_;

Simulator::Simulator() {
  if (const char* env = std::getenv("CONTJOIN_THREADS")) {
    char* end = nullptr;
    long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1 && v <= 256) {
      workers_ = static_cast<int>(v);
    }
  }
}

Simulator::~Simulator() { StopPool(); }

// contjoin-check: hot
void Simulator::ScheduleShardedAt(SimTime when, uint64_t shard, Action action,
                                  CancelToken cancel) {
  CJ_CHECK(when >= now_) << "cannot schedule in the past: " << when << " < "
                         << now_;
  ExecContext& ctx = exec_context_;
  if (ctx.sim == this && ctx.children != nullptr) {
    ctx.children->push_back(PendingChild{
        when, Event{shard, std::move(action), std::move(cancel)}});
    return;
  }
  Push(when, Event{shard, std::move(action), std::move(cancel)});
}

// contjoin-check: hot
void Simulator::Push(SimTime when, Event event) {
  auto [it, inserted] = queue_.try_emplace(when);
  if (inserted) it->second.events.swap(spare_);
  it->second.events.push_back(std::move(event));
  ++pending_;
}

bool Simulator::InExecution() const { return exec_context_.sim == this; }

namespace {

bool IsCancelled(const CancelToken& cancel) {
  return cancel != nullptr && cancel->load(std::memory_order_acquire);
}

}  // namespace

void Simulator::DiscardCancelled() {
  while (!queue_.empty()) {
    Bucket& front = queue_.begin()->second;
    while (front.head < front.events.size() &&
           IsCancelled(front.events[front.head].cancel)) {
      front.events[front.head] = Event{};  // Release the closure now.
      ++front.head;
      --pending_;
    }
    if (front.head < front.events.size()) return;
    queue_.erase(queue_.begin());
  }
}

size_t Simulator::Run() {
  size_t ran = 0;
  for (;;) {
    DiscardCancelled();
    if (queue_.empty()) break;
    ran += RunBatch();
  }
  return ran;
}

size_t Simulator::RunUntil(SimTime until) {
  size_t ran = 0;
  for (;;) {
    DiscardCancelled();
    if (queue_.empty() || queue_.begin()->first > until) break;
    ran += RunBatch();
  }
  if (now_ < until) now_ = until;
  return ran;
}

// contjoin-check: hot
size_t Simulator::RunBatch() {
  // The batch is the whole front bucket, taken before any of it runs:
  // children a handler schedules for this same timestamp open a fresh
  // bucket and form the next epoch.
  auto front = queue_.begin();
  now_ = front->first;
  const size_t head = front->second.head;
  pending_ -= front->second.events.size() - head;
  batch_.clear();
  batch_.swap(front->second.events);
  if (front->second.events.capacity() > spare_.capacity()) {
    spare_.swap(front->second.events);  // The last batch's storage, empty.
  }
  queue_.erase(front);
  // Drop the discarded head and any cancelled event further down the
  // cohort (the clock is already at now_ because of a live sibling).
  bool all_sharded = true;
  size_t n = 0;
  for (size_t i = head; i < batch_.size(); ++i) {
    if (IsCancelled(batch_[i].cancel)) continue;
    if (batch_[i].shard == kNoShard) all_sharded = false;
    if (n != i) batch_[n] = std::move(batch_[i]);
    ++n;
  }
  batch_.erase(batch_.begin() + static_cast<std::ptrdiff_t>(n), batch_.end());
  if (workers_ > 1 && all_sharded && n >= kMinParallelBatch) {
    ExecuteParallel();
  } else {
    ExecuteSerial();
  }
  batch_.clear();
  events_run_ += n;
  return n;
}

// contjoin-check: hot
void Simulator::RunEvent(size_t index, std::vector<PendingChild>* children) {
  ExecContext& ctx = exec_context_;
  ctx.sim = this;
  ctx.children = children;
  batch_[index].action();
  if (post_action_hook_) post_action_hook_();
  ctx.sim = nullptr;
  ctx.children = nullptr;
}

void Simulator::ExecuteSerial() {
  // Children push straight into the queue with fresh sequence numbers —
  // exactly what the historical one-event-at-a-time loop did.
  for (size_t i = 0; i < batch_.size(); ++i) RunEvent(i, nullptr);
}

void Simulator::ExecuteParallel() {
  EnsurePool();
  ++parallel_batches_run_;
  const size_t n = batch_.size();
  if (child_bufs_.size() < n) child_bufs_.resize(n);
  for (size_t i = 0; i < n; ++i) child_bufs_[i].clear();

  // Group batch positions by shard; within a shard the original FIFO order
  // is preserved (batch_ is already seq-sorted, and the sort key breaks
  // ties by position).
  group_order_.resize(n);
  for (size_t i = 0; i < n; ++i) group_order_[i] = static_cast<uint32_t>(i);
  std::sort(group_order_.begin(), group_order_.end(),
            [this](uint32_t a, uint32_t b) {
              if (batch_[a].shard != batch_[b].shard) {
                return batch_[a].shard < batch_[b].shard;
              }
              return a < b;
            });
  group_bounds_.clear();
  group_bounds_.push_back(0);
  for (size_t k = 1; k < n; ++k) {
    if (batch_[group_order_[k]].shard != batch_[group_order_[k - 1]].shard) {
      group_bounds_.push_back(static_cast<uint32_t>(k));
    }
  }
  group_bounds_.push_back(static_cast<uint32_t>(n));
  next_group_.store(0, std::memory_order_relaxed);

  {
    std::lock_guard<std::mutex> lk(pool_mu_);
    ++work_generation_;
    workers_active_ = pool_.size();
  }
  work_cv_.notify_all();
  ProcessGroups();  // The coordinating thread pulls groups too.
  {
    std::unique_lock<std::mutex> lk(pool_mu_);
    done_cv_.wait(lk, [this] { return workers_active_ == 0; });
  }

  // Canonical merge: walking events in batch order and each event's
  // children in scheduling order reproduces the exact sequence numbers the
  // serial path would have assigned.
  for (size_t i = 0; i < n; ++i) {
    for (PendingChild& child : child_bufs_[i]) {
      Push(child.when, std::move(child.event));
    }
    child_bufs_[i].clear();
  }
}

void Simulator::ProcessGroups() {  // contjoin-check: hot — lock-free group pull
  const size_t num_groups = group_bounds_.size() - 1;
  for (;;) {
    size_t g = next_group_.fetch_add(1, std::memory_order_relaxed);
    if (g >= num_groups) return;
    for (uint32_t k = group_bounds_[g]; k < group_bounds_[g + 1]; ++k) {
      const size_t index = group_order_[k];
      RunEvent(index, &child_bufs_[index]);
    }
  }
}

void Simulator::WorkerLoop() {
  uint64_t seen_generation = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(pool_mu_);
      work_cv_.wait(lk, [this, seen_generation] {
        return shutdown_ || work_generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = work_generation_;
    }
    ProcessGroups();
    {
      std::lock_guard<std::mutex> lk(pool_mu_);
      --workers_active_;
      if (workers_active_ == 0) done_cv_.notify_all();
    }
  }
}

void Simulator::EnsurePool() {
  const size_t want = static_cast<size_t>(workers_ - 1);
  if (pool_.size() == want) return;
  StopPool();
  pool_.reserve(want);
  for (size_t i = 0; i < want; ++i) {
    pool_.emplace_back([this] { WorkerLoop(); });
  }
}

void Simulator::StopPool() {
  if (pool_.empty()) return;
  {
    std::lock_guard<std::mutex> lk(pool_mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : pool_) worker.join();
  pool_.clear();
  {
    std::lock_guard<std::mutex> lk(pool_mu_);
    shutdown_ = false;
  }
}

void Simulator::SetWorkers(int workers) {
  CJ_CHECK(!InExecution()) << "SetWorkers must not run inside a handler";
  if (workers < 1) workers = 1;
  if (workers == workers_) return;
  StopPool();
  workers_ = workers;
}

}  // namespace contjoin::sim
