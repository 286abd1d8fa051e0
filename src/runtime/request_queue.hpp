/**
 * @file
 * Bounded multi-producer / multi-consumer queue feeding the worker
 * pool. A full queue exerts backpressure: blocking push() parks the
 * producer, tryPush() refuses and leaves the item with the caller so
 * it can shed load instead. close() wakes every waiter; consumers
 * drain the remaining items before seeing end-of-stream.
 */

#ifndef NEBULA_RUNTIME_REQUEST_QUEUE_HPP
#define NEBULA_RUNTIME_REQUEST_QUEUE_HPP

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

namespace nebula {

/** Bounded MPMC queue of move-only items. */
template <typename T> class BoundedQueue
{
  public:
    explicit BoundedQueue(size_t capacity)
        : capacity_(std::max<size_t>(1, capacity))
    {
    }

    /**
     * Block until there is room, then enqueue.
     * @return false (item discarded) if the queue was closed.
     */
    bool
    push(T item)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        notFull_.wait(lock, [&] {
            return closed_ || items_.size() < capacity_;
        });
        if (closed_)
            return false;
        items_.push_back(std::move(item));
        highWater_ = std::max(highWater_, items_.size());
        notEmpty_.notify_one();
        return true;
    }

    /**
     * Enqueue only if there is room right now.
     * @return false if full or closed; @p item is left untouched.
     */
    bool
    tryPush(T &item)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (closed_ || items_.size() >= capacity_)
            return false;
        items_.push_back(std::move(item));
        highWater_ = std::max(highWater_, items_.size());
        notEmpty_.notify_one();
        return true;
    }

    /**
     * Block until an item is available and dequeue it.
     * @return nullopt once the queue is closed and fully drained.
     */
    std::optional<T>
    pop()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        notEmpty_.wait(lock, [&] { return closed_ || !items_.empty(); });
        if (items_.empty())
            return std::nullopt;
        T item = std::move(items_.front());
        items_.pop_front();
        notFull_.notify_one();
        return item;
    }

    /** Remove and return every pending item (used by hard shutdown). */
    std::vector<T>
    drain()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<T> pending;
        pending.reserve(items_.size());
        while (!items_.empty()) {
            pending.push_back(std::move(items_.front()));
            items_.pop_front();
        }
        notFull_.notify_all();
        return pending;
    }

    /** Refuse new items and wake every blocked producer/consumer. */
    void
    close()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        closed_ = true;
        notFull_.notify_all();
        notEmpty_.notify_all();
    }

    bool
    closed() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return closed_;
    }

    size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return items_.size();
    }

    /** Deepest occupancy observed since construction. */
    size_t
    highWater() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return highWater_;
    }

    size_t capacity() const { return capacity_; }

  private:
    mutable std::mutex mutex_;
    std::condition_variable notFull_;
    std::condition_variable notEmpty_;
    std::deque<T> items_;
    size_t capacity_;
    size_t highWater_ = 0;
    bool closed_ = false;
};

} // namespace nebula

#endif // NEBULA_RUNTIME_REQUEST_QUEUE_HPP
