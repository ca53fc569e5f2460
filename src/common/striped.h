#ifndef LIOD_COMMON_STRIPED_H_
#define LIOD_COMMON_STRIPED_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <mutex>

namespace liod {

/// The calling thread's stripe key: threads are numbered in the order they
/// first ask, so threads that start together land on distinct stripes. (A
/// hash of the thread id put two of four threads on one stripe in about 40%
/// of processes, and a shared stripe made 4-thread recording ~6x slower.)
inline std::size_t ThreadStripeKey() {
  static std::atomic<std::size_t> next{0};
  static const thread_local std::size_t key = next.fetch_add(1, std::memory_order_relaxed);
  return key;
}

/// A fixed array of mutex-guarded values, each thread mapped to one stripe
/// by its ThreadStripeKey: writers on different threads rarely share a lock,
/// readers merge every stripe, and the footprint does not grow with the
/// number of threads that ever wrote. A ForEach concurrent with writers may
/// miss updates in flight.
template <typename T, std::size_t kStripes>
class Striped {
 public:
  /// Runs `fn(T&)` on the calling thread's stripe under its mutex.
  template <typename Fn>
  void Update(Fn&& fn) {
    Stripe& stripe = stripes_[ThreadStripeKey() % kStripes];
    std::lock_guard<std::mutex> lock(stripe.mu);
    fn(stripe.value);
  }

  /// Runs `fn(T&)` on every stripe in turn, each under its mutex.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (Stripe& stripe : stripes_) {
      std::lock_guard<std::mutex> lock(stripe.mu);
      fn(stripe.value);
    }
  }

 private:
  /// A cache line apiece, so writers on neighbouring stripes do not contend.
  struct alignas(64) Stripe {
    std::mutex mu;
    T value{};
  };

  mutable std::array<Stripe, kStripes> stripes_;
};

}  // namespace liod

#endif  // LIOD_COMMON_STRIPED_H_
