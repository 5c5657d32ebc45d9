#include "common/thread_pool.h"

#include <algorithm>

namespace sebdb {

namespace {

// Which pool (if any) the current thread belongs to, and its worker slot.
// Submissions from a worker go to its own deque; everyone else round-robins.
thread_local ThreadPool* tls_pool = nullptr;
thread_local size_t tls_worker = 0;

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  int n = std::max(1, num_threads);
  queues_.reserve(n);
  for (int i = 0; i < n; i++) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(n);
  for (int i = 0; i < n; i++) {
    workers_.emplace_back([this, i] { WorkerLoop(static_cast<size_t>(i)); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_release);
  {
    MutexLock lock(&idle_mu_);
    idle_cv_.NotifyAll();
  }
  for (auto& worker : workers_) worker.join();
  // Workers drain their deques before exiting, but a task submitted during
  // shutdown could slip in after a worker's last sweep; run the leftovers
  // here so no submitted task is silently dropped.
  for (size_t i = 0; i < queues_.size(); i++) {
    while (RunOneTask(i)) {
    }
  }
}

ThreadPool* ThreadPool::Default() {
  static ThreadPool* pool = new ThreadPool(
      static_cast<int>(std::thread::hardware_concurrency()));
  return pool;
}

void ThreadPool::Submit(std::function<void()> fn) {
  size_t target = tls_pool == this
                      ? tls_worker
                      : next_queue_.fetch_add(1, std::memory_order_relaxed) %
                            queues_.size();
  {
    MutexLock lock(&queues_[target]->mu);
    queues_[target]->tasks.push_back(std::move(fn));
  }
  pending_.fetch_add(1, std::memory_order_release);
  MutexLock lock(&idle_mu_);
  idle_cv_.NotifyOne();
}

bool ThreadPool::RunOneTask(size_t preferred) {
  std::function<void()> task;
  const size_t k = queues_.size();
  {
    // Own deque first, newest task (LIFO keeps the working set hot)...
    MutexLock lock(&queues_[preferred]->mu);
    if (!queues_[preferred]->tasks.empty()) {
      task = std::move(queues_[preferred]->tasks.back());
      queues_[preferred]->tasks.pop_back();
    }
  }
  // ...then steal the oldest task from a sibling (FIFO takes the largest
  // remaining piece of a fan-out).
  for (size_t i = 1; task == nullptr && i < k; i++) {
    WorkerQueue& victim = *queues_[(preferred + i) % k];
    MutexLock lock(&victim.mu);
    if (!victim.tasks.empty()) {
      task = std::move(victim.tasks.front());
      victim.tasks.pop_front();
    }
  }
  if (task == nullptr) return false;
  pending_.fetch_sub(1, std::memory_order_relaxed);
  task();
  return true;
}

void ThreadPool::WorkerLoop(size_t id) {
  tls_pool = this;
  tls_worker = id;
  for (;;) {
    if (RunOneTask(id)) continue;
    MutexLock lock(&idle_mu_);
    while (!stop_.load(std::memory_order_acquire) &&
           pending_.load(std::memory_order_acquire) == 0) {
      idle_cv_.Wait(idle_mu_);
    }
    if (stop_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

void ThreadPool::ParallelFor(uint64_t n,
                             const std::function<void(uint64_t)>& fn,
                             uint64_t grain) {
  if (n == 0) return;
  grain = std::max<uint64_t>(1, grain);
  if (n <= grain) {
    for (uint64_t i = 0; i < n; i++) fn(i);
    return;
  }

  struct LoopState {
    std::atomic<uint64_t> next{0};
    std::atomic<uint64_t> done{0};
    uint64_t n;
    uint64_t grain;
    const std::function<void(uint64_t)>* fn;
    Mutex mu;
    CondVar cv;
  };
  auto state = std::make_shared<LoopState>();
  state->n = n;
  state->grain = grain;
  state->fn = &fn;  // valid: the caller blocks until done == n

  auto run = [state] {
    for (;;) {
      uint64_t begin =
          state->next.fetch_add(state->grain, std::memory_order_relaxed);
      if (begin >= state->n) return;
      uint64_t end = std::min(state->n, begin + state->grain);
      for (uint64_t i = begin; i < end; i++) (*state->fn)(i);
      uint64_t finished =
          state->done.fetch_add(end - begin, std::memory_order_acq_rel) +
          (end - begin);
      if (finished == state->n) {
        MutexLock lock(&state->mu);
        state->cv.NotifyAll();
      }
    }
  };

  // One runner per worker (minus the caller, who runs inline) is enough:
  // runners claim chunks dynamically, so idle ones just exit.
  uint64_t chunks = (n + grain - 1) / grain;
  uint64_t helpers =
      std::min<uint64_t>(static_cast<uint64_t>(num_threads()), chunks - 1);
  for (uint64_t i = 0; i < helpers; i++) Submit(run);
  run();
  MutexLock lock(&state->mu);
  while (state->done.load(std::memory_order_acquire) != state->n) {
    state->cv.Wait(state->mu);
  }
}

Status ParallelForStatus(ThreadPool* pool, uint64_t n,
                         const std::function<Status(uint64_t)>& fn,
                         uint64_t grain) {
  if (pool == nullptr || n <= 1) {
    for (uint64_t i = 0; i < n; i++) {
      Status s = fn(i);
      if (!s.ok()) return s;
    }
    return Status::OK();
  }
  // first_index is read lock-free on every item to skip work past a
  // failure; only recording a failure takes the lock. It only ever
  // decreases, and it is written under mu together with status, so the
  // status kept is always the smallest failing index's.
  struct ErrorState {
    std::atomic<uint64_t> first_index{UINT64_MAX};
    Mutex mu;
    Status status GUARDED_BY(mu);
  };
  ErrorState error;
  pool->ParallelFor(
      n,
      [&](uint64_t i) {
        // Skip work past an already-recorded failure; a serial loop would
        // have stopped there, and its output is discarded anyway.
        if (i > error.first_index.load(std::memory_order_relaxed)) return;
        Status s = fn(i);
        if (!s.ok()) {
          MutexLock lock(&error.mu);
          if (i < error.first_index.load(std::memory_order_relaxed)) {
            error.first_index.store(i, std::memory_order_relaxed);
            error.status = std::move(s);
          }
        }
      },
      grain);
  MutexLock lock(&error.mu);  // workers are done; satisfies the analysis
  return error.status;
}

}  // namespace sebdb
