// Fixture [raw-mutex]: no locking primitive under src/; cells share only
// immutable inputs and RunGrid's atomics.
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <mutex>

namespace fixture {

class BadQueue {
 public:
  void Push(int v) {
    std::lock_guard<std::mutex> lock(mu_);  // expect(raw-mutex)
    pending_ = v;
    cv_.notify_one();
  }

 private:
  std::mutex mu_;               // expect(raw-mutex)
  std::condition_variable cv_;  // expect(raw-mutex)
  int pending_ = 0;
};

// Negative: an atomic counter, RunGrid's primitive, is clean.
class GoodCursor {
 public:
  std::size_t Claim() { return next_.fetch_add(1); }

 private:
  std::atomic<std::size_t> next_{0};
};

}  // namespace fixture
