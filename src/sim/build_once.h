/**
 * @file
 * A thread-safe build-once map: the memo behind SeededPatCache and
 * SharedPlanCache.
 *
 * A hit returns the entry's published future; a miss installs a
 * pending entry under the lock and builds outside it, so unrelated
 * keys build in parallel while duplicate concurrent misses block on
 * the first builder's future. Each lookup also bumps the obs
 * counters `<counter>_hits_total` or `<counter>_misses_total`.
 */

#pragma once

#include <cstddef>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <utility>

#include "obs/metrics.h"

namespace heb {

/** Values of type @p Value built at most once per @p Key. */
template <class Key, class Value>
class BuildOnce
{
  public:
    /** @p counter prefixes the hit and miss counter names. */
    explicit BuildOnce(std::string counter)
        : hitCounter_(counter + "_hits_total"),
          missCounter_(counter + "_misses_total")
    {
    }

    /** The value for @p key, calling @p build() on the first miss. */
    template <class Build>
    Value
    get(const Key &key, Build &&build)
    {
        std::promise<Value> promise;
        std::shared_future<Value> pending;
        bool hit;
        {
            std::lock_guard<std::mutex> lock(mu_);
            auto it = entries_.find(key);
            hit = it != entries_.end();
            ++(hit ? hits_ : misses_);
            obs::MetricsRegistry::global()
                .counter(hit ? hitCounter_ : missCounter_)
                .inc();
            if (hit) {
                pending = it->second;
            } else {
                pending = promise.get_future().share();
                entries_.emplace(key, pending);
            }
        }
        // Wait, or build, outside the lock.
        if (!hit)
            promise.set_value(build());
        return pending.get();
    }

    /** Lookups served from an existing entry. */
    std::size_t
    hits() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return hits_;
    }

    /** Lookups that had to build. */
    std::size_t
    misses() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return misses_;
    }

    /** Distinct keys held. */
    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return entries_.size();
    }

    /** Drop every entry and zero the hit/miss tallies. */
    void
    clear()
    {
        std::lock_guard<std::mutex> lock(mu_);
        entries_.clear();
        hits_ = 0;
        misses_ = 0;
    }

  private:
    const std::string hitCounter_;
    const std::string missCounter_;
    mutable std::mutex mu_;
    std::map<Key, std::shared_future<Value>> entries_;
    std::size_t hits_ = 0;
    std::size_t misses_ = 0;
};

} // namespace heb
