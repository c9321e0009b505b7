#include "engine/backend.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace esl::engine {

namespace {

/// Rewrites engine-local detection ids into packed SessionHandle values.
void translate_ids(std::uint32_t shard_index,
                   std::vector<Detection>& detections) {
  for (Detection& d : detections) {
    d.session_id = SessionHandle::pack(shard_index, d.session_id).value;
  }
}

}  // namespace

void ExecutionBackend::close_session(Shard& shard, std::uint64_t local_id) {
  MutexLock lock(shard.mutex);
  shard.engine->remove_session(local_id);
}

// ---------------------------------------------------------------- inline

void InlineBackend::start(std::vector<std::unique_ptr<Shard>>& shards,
                          DetectionSink& sink) {
  shards_ = &shards;
  sink_ = &sink;
}

void InlineBackend::stop() {
  shards_ = nullptr;
  sink_ = nullptr;
}

void InlineBackend::ingest(Shard& shard, std::uint64_t local_id,
                           const std::vector<std::span<const Real>>& chunk) {
  MutexLock lock(shard.mutex);
  shard.engine->ingest(local_id, chunk);
}

void InlineBackend::poll_shard(const Shard& shard) {
  scratch_.clear();
  {
    MutexLock lock(shard.mutex);
    shard.engine->poll_into(scratch_);
  }
  translate_ids(shard.index, scratch_);
  if (!scratch_.empty()) {
    sink_->on_detections(scratch_);
  }
}

void InlineBackend::flush() {
  ensures(shards_ != nullptr, "InlineBackend: flush before start");
  for (const auto& shard : *shards_) {
    poll_shard(*shard);
  }
}

void InlineBackend::flush_shards(
    std::span<const std::uint32_t> shard_indices) {
  ensures(shards_ != nullptr, "InlineBackend: flush before start");
  for (const std::uint32_t index : shard_indices) {
    poll_shard(*(*shards_)[index]);
  }
}

// ------------------------------------------------------------ threadpool

ThreadPoolBackend::ThreadPoolBackend(ThreadPoolConfig config)
    : config_(config) {
  expects(config_.queue_capacity >= 1,
          "ThreadPoolBackend: queue_capacity must be positive");
}

ThreadPoolBackend::~ThreadPoolBackend() {
  try {
    stop();
  } catch (...) {
    // A pending worker error surfacing in the destructor has nowhere to
    // go; stop() already joined every thread before rethrowing it.
  }
}

void ThreadPoolBackend::start(std::vector<std::unique_ptr<Shard>>& shards,
                              DetectionSink& sink) {
  ensures(workers_.empty(), "ThreadPoolBackend: started twice");
  shards_ = &shards;
  sink_ = &sink;
  stopping_.store(false, std::memory_order_relaxed);
  workers_.reserve(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    workers_.push_back(std::make_unique<Worker>(config_.queue_capacity));
  }
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    workers_[i]->thread = std::thread([this, i] { run_worker(i); });
  }
}

void ThreadPoolBackend::stop() {
  if (workers_.empty()) {
    return;
  }
  // Order matters: drain in-flight chunks, join every worker, and only
  // then surface any captured worker error — stop() must never leave
  // threads running by throwing early.
  flush_barrier();
  stopping_.store(true, std::memory_order_release);
  for (const auto& worker : workers_) {
    worker->queue.wake();
  }
  for (const auto& worker : workers_) {
    if (worker->thread.joinable()) {
      worker->thread.join();
    }
  }
  for (const auto& worker : workers_) {
    worker->queue.close();
  }
  workers_.clear();
  shards_ = nullptr;
  sink_ = nullptr;
  rethrow_worker_error();
}

void ThreadPoolBackend::ingest(
    Shard& shard, std::uint64_t local_id,
    const std::vector<std::span<const Real>>& chunk) {
  ensures(shard.index < workers_.size(),
          "ThreadPoolBackend: ingest before start");
  workers_[shard.index]->queue.push(local_id, chunk);
}

void ThreadPoolBackend::flush() {
  flush_barrier();
  rethrow_worker_error();
}

void ThreadPoolBackend::flush_shards(
    std::span<const std::uint32_t> shard_indices) {
  run_barrier(shard_indices, nullptr);
  rethrow_worker_error();
}

void ThreadPoolBackend::flush_shards_async(
    std::span<const std::uint32_t> shard_indices,
    std::function<void()> done) {
  // Surface any captured worker error on the caller's thread *before*
  // registering: the callback runs on a worker, where a throw would be
  // fatal.
  rethrow_worker_error();
  if (!done) {
    run_barrier(shard_indices, nullptr);
    return;
  }
  run_barrier(shard_indices, std::move(done));
}

void ThreadPoolBackend::flush_barrier() {
  if (workers_.empty()) {
    return;
  }
  std::vector<std::uint32_t> all(workers_.size());
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    all[i] = static_cast<std::uint32_t>(i);
  }
  run_barrier(all, nullptr);
}

void ThreadPoolBackend::run_barrier(
    std::span<const std::uint32_t> shard_indices,
    std::function<void()> callback) {
  if (workers_.empty()) {
    // No workers yet (backend not started): nothing can be in flight.
    if (callback) {
      callback();
    }
    return;
  }
  auto barrier = std::make_unique<FlushBarrier>();
  barrier->callback = std::move(callback);
  // Snapshot how much each covered queue has ever received: the barrier
  // only waits for *those* chunks, so it completes even while producers
  // keep streaming new ones past it. Legs are not filtered against
  // popped() here — popped() advances before the worker delivers to the
  // sink, so a "pre-satisfied" leg could otherwise complete a barrier
  // ahead of its detections.
  barrier->legs.reserve(shard_indices.size());
  for (const std::uint32_t index : shard_indices) {
    ensures(index < workers_.size(), "ThreadPoolBackend: bad shard index");
    barrier->legs.emplace_back(static_cast<std::size_t>(index),
                               workers_[index]->queue.pushed());
  }
  if (barrier->legs.empty()) {
    if (barrier->callback) {
      barrier->callback();
    }
    return;
  }
  FlushBarrier* handle = barrier.get();
  const bool sync = handle->callback == nullptr;
  {
    MutexLock lock(flush_mutex_);
    barriers_.push_back(std::move(barrier));
  }
  // Wake every covered worker so idle queues confirm their (already
  // reached) watermarks promptly. Iterates the caller's span, not the
  // registered barrier: workers may already be erasing its legs — and,
  // on the async path, the whole barrier.
  for (const std::uint32_t index : shard_indices) {
    workers_[index]->queue.wake();
  }
  if (!sync) {
    return;  // the confirming worker runs the callback and erases it
  }
  MutexLock lock(flush_mutex_);
  while (!handle->completed) {
    flush_cv_.wait(lock);
  }
  // The waiter owns its barrier's lifetime on the sync path.
  for (std::size_t i = 0; i < barriers_.size(); ++i) {
    if (barriers_[i].get() == handle) {
      barriers_.erase(barriers_.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
}

void ThreadPoolBackend::rethrow_worker_error() {
  MutexLock lock(error_mutex_);
  if (worker_error_ != nullptr) {
    std::exception_ptr error = worker_error_;
    worker_error_ = nullptr;
    std::rethrow_exception(error);
  }
}

void ThreadPoolBackend::run_worker(std::size_t index) {
  Shard& shard = *(*shards_)[index];
  Worker& worker = *workers_[index];
  std::vector<IngestChunk> chunks;
  std::vector<Detection> detections;
  std::vector<std::span<const Real>> views;
  std::vector<std::function<void()>> ready_callbacks;

  while (true) {
    worker.queue.wait();

    chunks.clear();
    worker.queue.pop_all(chunks);
    if (!chunks.empty()) {
      try {
        detections.clear();
        {
          MutexLock lock(shard.mutex);
          for (const IngestChunk& chunk : chunks) {
            views.clear();
            for (const RealVector& channel : chunk.channels) {
              views.emplace_back(channel);
            }
            shard.engine->ingest(chunk.session_id, views);
          }
          shard.engine->poll_into(detections);
        }
        translate_ids(shard.index, detections);
        if (!detections.empty()) {
          sink_->on_detections(detections);
        }
      } catch (...) {
        MutexLock lock(error_mutex_);
        if (worker_error_ == nullptr) {
          worker_error_ = std::current_exception();
        }
      }
      worker.queue.recycle(chunks);
    }

    // Barrier scan. A leg of this worker's confirms once the queue's
    // popped() count reaches the leg's watermark: every chunk the
    // barrier covers has then been ingested *and* polled *and*
    // delivered (this point is only reached after the drained batch
    // went through poll_into and the sink), even if producers have
    // already pushed newer chunks behind it.
    bool notify = false;
    {
      MutexLock lock(flush_mutex_);
      const std::uint64_t done = worker.queue.popped();
      for (auto it = barriers_.begin(); it != barriers_.end();) {
        FlushBarrier& barrier = **it;
        auto& legs = barrier.legs;
        legs.erase(std::remove_if(legs.begin(), legs.end(),
                                  [index, done](const auto& leg) {
                                    return leg.first == index &&
                                           done >= leg.second;
                                  }),
                   legs.end());
        if (legs.empty() && !barrier.completed) {
          barrier.completed = true;
          if (barrier.callback) {
            // Async barrier: this worker runs the callback (outside the
            // lock) and owns the erase; sync waiters erase their own.
            ready_callbacks.push_back(std::move(barrier.callback));
            it = barriers_.erase(it);
            continue;
          }
          notify = true;
        }
        ++it;
      }
    }
    if (notify) {
      flush_cv_.notify_all();
    }
    for (auto& callback : ready_callbacks) {
      callback();
    }
    ready_callbacks.clear();

    if (stopping_.load(std::memory_order_acquire) &&
        worker.queue.size() == 0) {
      return;
    }
  }
}

}  // namespace esl::engine
