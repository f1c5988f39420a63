#include "core/parallel.h"

#include "common/logging.h"

namespace fc::core {

unsigned
ThreadPool::resolveThreadCount(unsigned requested)
{
    if (requested != 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(unsigned num_threads, bool standalone)
    : num_threads_(resolveThreadCount(num_threads))
{
    // Fork/join mode: the joining thread is the last worker
    // (help-join), so a pool of n threads spawns n - 1 and a pool of
    // 1 spawns none. Standalone mode has no joining caller, so all n
    // workers are real threads.
    const unsigned spawn = standalone ? num_threads_ : num_threads_ - 1;
    workers_.reserve(spawn);
    for (unsigned t = 0; t < spawn; ++t)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
        fc_assert(queue_.empty() && detached_.empty(),
                  "thread pool destroyed with %zu tasks still queued",
                  queue_.size() + detached_.size());
    }
    work_cv_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
ThreadPool::submitDetachedTask(InlineTask task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        fc_assert(!stop_, "submitDetached on a stopped pool");
        // Only dedicated workers run the detached lane (TaskGroup
        // waiters never touch it), so a 0-worker fork/join pool would
        // park the task forever.
        fc_assert(!workers_.empty(),
                  "submitDetached needs worker threads (construct the "
                  "pool with standalone=true)");
        detached_.push_back(std::move(task));
    }
    // notify_all, not notify_one: a TaskGroup waiter shares this CV
    // but never takes detached work, so a single wake could land on
    // it and leave the idle worker asleep until the next chunk
    // completion. Detached submissions are coarse; the broadcast is
    // noise-free in practice.
    work_cv_.notify_all();
}

void
ThreadPool::enqueueForkJoin(InlineTask task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
    }
    work_cv_.notify_one();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        InlineTask task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_cv_.wait(lock, [this] {
                return stop_ || !queue_.empty() || !detached_.empty();
            });
            // Fork/join chunks first: they unblock waiters and keep
            // spilled requests moving; detached requests follow.
            if (!queue_.empty()) {
                task = std::move(queue_.front());
                queue_.pop_front();
            } else if (!detached_.empty()) {
                task = std::move(detached_.front());
                detached_.pop_front();
            } else {
                return; // stop_ set and nothing left to run
            }
        }
        task();
    }
}

TaskGroup::TaskGroup(ThreadPool *pool)
    : pool_(pool && pool->numThreads() > 1 ? pool : nullptr)
{
}

TaskGroup::~TaskGroup()
{
    // Tasks reference this group; never let it die before they end.
    if (pending_.load(std::memory_order_acquire) > 0) {
        try {
            wait();
        } catch (...) {
            // wait() already ran every task; swallow on this
            // destructor-only path (normal use calls wait() itself).
        }
    }
}

void
TaskGroup::record(std::exception_ptr e)
{
    std::lock_guard<std::mutex> lock(exception_mutex_);
    if (!exception_)
        exception_ = e;
}

void
TaskGroup::finish(ThreadPool *pool)
{
    {
        // Decrement under the pool mutex so a waiter holding it
        // cannot miss the final notification. Last access to `this`.
        std::lock_guard<std::mutex> lock(pool->mutex_);
        pending_.fetch_sub(1, std::memory_order_acq_rel);
    }
    pool->work_cv_.notify_all();
}

void
TaskGroup::wait()
{
    if (pool_ != nullptr) {
        std::unique_lock<std::mutex> lock(pool_->mutex_);
        while (pending_.load(std::memory_order_acquire) > 0) {
            if (!pool_->queue_.empty()) {
                // Help: run queued tasks instead of blocking. The
                // task may belong to another group — draining any
                // work keeps the whole pool making progress and makes
                // nested fork/join deadlock-free.
                InlineTask task = std::move(pool_->queue_.front());
                pool_->queue_.pop_front();
                lock.unlock();
                task();
                lock.lock();
            } else {
                pool_->work_cv_.wait(lock, [this] {
                    return pending_.load(std::memory_order_acquire) ==
                               0 ||
                           !pool_->queue_.empty();
                });
            }
        }
    }
    std::exception_ptr e;
    {
        std::lock_guard<std::mutex> lock(exception_mutex_);
        e = exception_;
        exception_ = nullptr;
    }
    if (e)
        std::rethrow_exception(e);
}

void
parallelForImpl(ThreadPool *pool, std::size_t begin, std::size_t end,
                std::size_t grain, detail::ChunkRef fn)
{
    TaskGroup group(pool);
    for (std::size_t cb = begin; cb < end; cb += grain) {
        const std::size_t ce = std::min(cb + grain, end);
        group.run([fn, cb, ce] { fn.call(fn.ctx, cb, ce); });
    }
    group.wait();
}

} // namespace fc::core
